package obs

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	g := New()
	c := g.Counter("a/b")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if g.Counter("a/b") != c {
		t.Fatal("same name must return the same cell")
	}
	if g.Counter("other") == c {
		t.Fatal("different names must return different cells")
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var g *Registry
	g.Counter("x").Add(3)
	g.Histogram("y").Observe(9)
	end := g.Span("z")
	end()
	g.ObserveSpan("z", time.Millisecond)
	snap := g.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	g := New()
	h := g.Histogram("lat")
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 1010 { // -5 clamps to 0
		t.Fatalf("sum = %d, want 1010", h.Sum())
	}
	st := g.Snapshot().Histograms["lat"]
	// Buckets: 0 -> le 0 (two: 0 and clamped -5), 1 -> le 1, {2,3} -> le 3,
	// 4 -> le 7, 1000 -> le 1023.
	want := []HistBucket{{0, 2}, {1, 1}, {3, 2}, {7, 1}, {1023, 1}}
	if len(st.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", st.Buckets, want)
	}
	for i, b := range want {
		if st.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, st.Buckets[i], b)
		}
	}
}

func TestSpanAccumulates(t *testing.T) {
	g := New()
	g.ObserveSpan("phase", 3*time.Millisecond)
	g.ObserveSpan("phase", 5*time.Millisecond)
	end := g.Span("phase")
	end()
	s := g.Snapshot().Spans["phase"]
	if s.Count != 3 {
		t.Fatalf("span count = %d, want 3", s.Count)
	}
	if s.TotalNs < 8*int64(time.Millisecond) {
		t.Fatalf("span total = %dns, want >= 8ms", s.TotalNs)
	}
	if s.MaxNs < 5*int64(time.Millisecond) {
		t.Fatalf("span max = %dns, want >= 5ms", s.MaxNs)
	}
}

func TestConcurrentRecording(t *testing.T) {
	g := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := g.Counter("n")
			h := g.Histogram("h")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j))
				g.ObserveSpan("s", time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	snap := g.Snapshot()
	if snap.Counters["n"] != 8000 {
		t.Fatalf("counter = %d, want 8000", snap.Counters["n"])
	}
	if snap.Histograms["h"].Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", snap.Histograms["h"].Count)
	}
	if snap.Spans["s"].Count != 8000 {
		t.Fatalf("span count = %d, want 8000", snap.Spans["s"].Count)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		g := New()
		g.Counter("b").Add(2)
		g.Counter("a").Add(1)
		g.Histogram("h").Observe(5)
		return g
	}
	var x, y bytes.Buffer
	if err := build().WriteJSON(&x); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Fatalf("equal registries produced different JSON:\n%s\nvs\n%s", x.String(), y.String())
	}
	var snap Snapshot
	if err := json.Unmarshal(x.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if snap.Counters["a"] != 1 || snap.Counters["b"] != 2 {
		t.Fatalf("round-tripped counters: %+v", snap.Counters)
	}
}

// promSample matches one Prometheus text sample line.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="(\+Inf|[0-9]+)"\})? -?[0-9]+(\.[0-9]+)?$`)

func TestPrometheusTextParses(t *testing.T) {
	g := New()
	g.Counter("dist/leases/requeued").Add(2)
	g.ObserveSpan("detect/analysis/regular", 2*time.Millisecond)
	h := g.Histogram("dist/lease-latency-ns")
	h.Observe(1500)
	h.Observe(90000)
	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	var samples int
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("unparseable sample line %q in:\n%s", line, text)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("no sample lines emitted")
	}
	for _, want := range []string{
		"fcatch_dist_leases_requeued_total 2",
		"fcatch_detect_analysis_regular_count 1",
		`fcatch_dist_lease_latency_ns_bucket{le="+Inf"} 2`,
		"fcatch_dist_lease_latency_ns_count 2",
		"fcatch_dist_lease_latency_ns_sum 91500",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q:\n%s", want, text)
		}
	}
	// Histogram buckets must be cumulative and end at count.
	if !strings.Contains(text, `fcatch_dist_lease_latency_ns_bucket{le="2047"} 1`) ||
		!strings.Contains(text, `fcatch_dist_lease_latency_ns_bucket{le="131071"} 2`) {
		t.Errorf("histogram buckets not cumulative:\n%s", text)
	}
}

// BenchmarkDiscardCounterAdd pins the no-op cost model: one atomic add, zero
// allocations, on the shared discard cell a nil registry hands out.
func BenchmarkDiscardCounterAdd(b *testing.B) {
	var g *Registry
	c := g.Counter("hot")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func TestDiscardCounterAddDoesNotAllocate(t *testing.T) {
	var g *Registry
	c := g.Counter("hot")
	allocs := testing.AllocsPerRun(100, func() { c.Inc(); _ = g.Span("x") })
	if allocs != 0 {
		t.Fatalf("nil-registry hot path allocates %v/op, want 0", allocs)
	}
}
