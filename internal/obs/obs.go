// Package obs is the pipeline's observability layer: named registries of
// atomic counters, bounded histograms, and monotonic phase spans, with
// deterministic JSON snapshots and Prometheus text output.
//
// The layer is strictly observe-only. Instrumented code produces byte-for-byte
// identical reports, corpora, and traces whether a registry is attached or
// not: metrics never feed back into scheduling, search, or detection, and
// every snapshot keeps wall-clock-derived values (span durations, histogram
// samples) separate from the deterministic counters.
//
// Cost model: a nil *Registry is the no-op default. Every accessor is
// nil-safe — Counter/Histogram return a shared discard cell, so an
// instrumented hot path pays at most one atomic add per event with no nil
// check or map lookup of its own (callers hoist the cell out of their loops);
// Span returns a shared no-op func with no closure allocation. Hot loops that
// must stay zero-alloc (the simulator step path) are not instrumented at all.
package obs

import (
	"encoding/json"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a bounded power-of-two histogram of non-negative int64 values
// (the unit — nanoseconds, bytes, plans — is the metric name's contract).
// Bucket i counts values whose upper bound is 2^i-1; 65 fixed buckets cover
// the whole int64 range, so Observe never allocates.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [65]atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count is the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum is the total of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// spanCell accumulates one phase span's statistics.
type spanCell struct {
	count atomic.Int64
	total atomic.Int64 // nanoseconds
	max   atomic.Int64 // nanoseconds
}

func (s *spanCell) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	s.count.Add(1)
	s.total.Add(ns)
	for {
		cur := s.max.Load()
		if ns <= cur || s.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Registry is a named set of counters, histograms, and phase spans. The zero
// value is not usable; construct with New. A nil *Registry is the package's
// no-op default: every method is nil-safe and hands back shared discard
// cells, so instrumented code needs no "is observability on?" branches.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	spans    map[string]*spanCell
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		spans:    make(map[string]*spanCell),
	}
}

// Shared discard cells for the nil registry: adds land on real atomics (one
// atomic add, the documented worst case) but are never read back.
var (
	discardCounter Counter
	discardHist    Histogram
	nopEnd         = func() {}
)

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns the shared discard counter.
func (g *Registry) Counter(name string) *Counter {
	if g == nil {
		return &discardCounter
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.counters[name]
	if !ok {
		c = new(Counter)
		g.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use. On a nil
// registry it returns the shared discard histogram.
func (g *Registry) Histogram(name string) *Histogram {
	if g == nil {
		return &discardHist
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.hists[name]
	if !ok {
		h = new(Histogram)
		g.hists[name] = h
	}
	return h
}

// Span starts a monotonic phase span and returns the func that ends it:
//
//	end := reg.Span("detect/analysis/regular")
//	... phase work ...
//	end()
//
// Spans from concurrent goroutines accumulate into the same cell. On a nil
// registry the returned func is a shared no-op (no closure allocation).
func (g *Registry) Span(name string) func() {
	if g == nil {
		return nopEnd
	}
	cell := g.spanCell(name)
	start := time.Now()
	return func() { cell.record(time.Since(start).Nanoseconds()) }
}

// ObserveSpan records an externally measured duration under a span name (for
// phases the caller timed itself, e.g. core's index builds, whose durations
// also feed Table 4).
func (g *Registry) ObserveSpan(name string, d time.Duration) {
	if g == nil {
		return
	}
	g.spanCell(name).record(d.Nanoseconds())
}

func (g *Registry) spanCell(name string) *spanCell {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.spans[name]
	if !ok {
		s = new(spanCell)
		g.spans[name] = s
	}
	return s
}

// SpanStat is one phase span's accumulated statistics.
type SpanStat struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	MaxNs   int64 `json:"max_ns"`
}

// HistBucket is one non-empty histogram bucket: Count values were ≤ Le.
type HistBucket struct {
	Le    int64 `json:"le"` // inclusive upper bound (2^i - 1)
	Count int64 `json:"count"`
}

// HistStat is one histogram's snapshot. Buckets are ascending by bound and
// non-cumulative; empty buckets are omitted.
type HistStat struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, the unit `-metrics
// out.json` serializes. Map keys marshal sorted, so two snapshots with equal
// values produce equal bytes.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters,omitempty"`
	Spans      map[string]SpanStat `json:"spans,omitempty"`
	Histograms map[string]HistStat `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. A nil registry snapshots
// empty.
func (g *Registry) Snapshot() Snapshot {
	snap := Snapshot{}
	if g == nil {
		return snap
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.counters) > 0 {
		snap.Counters = make(map[string]int64, len(g.counters))
		for name, c := range g.counters {
			snap.Counters[name] = c.Value()
		}
	}
	if len(g.spans) > 0 {
		snap.Spans = make(map[string]SpanStat, len(g.spans))
		for name, s := range g.spans {
			snap.Spans[name] = SpanStat{Count: s.count.Load(), TotalNs: s.total.Load(), MaxNs: s.max.Load()}
		}
	}
	if len(g.hists) > 0 {
		snap.Histograms = make(map[string]HistStat, len(g.hists))
		for name, h := range g.hists {
			st := HistStat{Count: h.count.Load(), Sum: h.sum.Load()}
			for i := range h.buckets {
				if n := h.buckets[i].Load(); n > 0 {
					st.Buckets = append(st.Buckets, HistBucket{Le: bucketBound(i), Count: n})
				}
			}
			snap.Histograms[name] = st
		}
	}
	return snap
}

// bucketBound is bucket i's inclusive upper bound: 2^i - 1, saturating at
// MaxInt64 (buckets 63 and 64 both saturate; Len64 puts MaxInt64 in 63 and
// nothing in 64, so the saturated bound stays unique among non-empty buckets).
func bucketBound(i int) int64 {
	if i >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<i - 1
}

// WriteJSON writes the registry's snapshot as indented JSON.
func (g *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(g.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
