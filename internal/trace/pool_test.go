package trace_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"io"
	"reflect"
	"sync"
	"testing"

	"fcatch/internal/apps/cassandra"
	"fcatch/internal/apps/hbase"
	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/zookeeper"
	"fcatch/internal/core"
	"fcatch/internal/parallel"
	"fcatch/internal/trace"
)

var observed struct {
	once   sync.Once
	traces map[string]*trace.Trace
	err    error
}

// observedTraces returns the fault-free and faulty observation traces of the
// six Table 1 workloads, by "<workload>/fault-free" and "<workload>/faulty",
// in a map the caller may add to.
func observedTraces(t testing.TB) map[string]*trace.Trace {
	t.Helper()
	observed.once.Do(func() {
		observed.traces = map[string]*trace.Trace{}
		for _, w := range []core.Workload{
			cassandra.New(), hbase.NewHB1(), hbase.NewHB2(),
			mapreduce.NewMR1(), mapreduce.NewMR2(), zookeeper.New(),
		} {
			o, err := core.Observe(w, core.DefaultOptions())
			if err != nil {
				observed.err = err
				return
			}
			observed.traces[w.Name()+"/fault-free"] = o.FaultFree
			observed.traces[w.Name()+"/faulty"] = o.Faulty
		}
	})
	if observed.err != nil {
		t.Fatal(observed.err)
	}
	out := make(map[string]*trace.Trace, len(observed.traces))
	for name, tr := range observed.traces {
		out[name] = tr
	}
	return out
}

func encode(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodeIgnoresDeflaterHistory: the bytes of an encoded trace do not
// depend on which gzip writer the encoder drew from the pool — a brand-new
// one, as every encoder used to make for itself, or one recycled in whatever
// state its last stream left it, here abandoned mid-stream. Both come from
// the production constructor, so they write at the level Encode does.
func TestEncodeIgnoresDeflaterHistory(t *testing.T) {
	defer trace.SetDeflaterSource(nil)
	traces := observedTraces(t)
	for seed := int64(1); seed <= 20; seed++ {
		traces[string(rune('a'+seed))+"/random"] = randomTrace(seed, 300)
	}
	for name, tr := range traces {
		trace.SetDeflaterSource(nil)
		fresh := sha256.Sum256(encode(t, tr))

		var junk bytes.Buffer
		used := trace.NewDeflater()
		used.Reset(&junk)
		used.Write(bytes.Repeat([]byte(name+" some other stream's bytes "), 400))
		trace.SetDeflaterSource(func() *gzip.Writer { return used })
		if reused := sha256.Sum256(encode(t, tr)); reused != fresh {
			t.Errorf("%s: encoding through a recycled gzip writer changed the bytes", name)
		}
	}
}

// snapshot deep-copies what a decoded trace hands out: records with their
// Taint/Ctl lists, and every symbol and PID string.
func snapshot(tr *trace.Trace) semantic {
	s := flatten(tr)
	s.PIDs = append([]string(nil), s.PIDs...)
	for i := range s.Records {
		r := &s.Records[i]
		r.Taint = append([]trace.OpID(nil), r.Taint...)
		r.Ctl = append([]trace.OpID(nil), r.Ctl...)
		// Force fresh string bytes: a symbol aliasing pooled memory would
		// otherwise change along with its "copy".
		for _, f := range []*string{&r.Machine, &r.PID, &r.Site, &r.Res, &r.Aux, &r.Target} {
			*f = string(append([]byte(nil), *f...))
		}
		for j := range r.Stack {
			r.Stack[j] = string(append([]byte(nil), r.Stack[j]...))
		}
	}
	return s
}

// TestDecodeStateRecycledSafely: a retained trace owns everything it hands
// out. Decode A, close its source, then decode a different trace B through
// the decode state A's source returned to the pool: A's records, lists and
// symbols must be exactly what they were. The pool may decline to keep a
// state (it does so at random under the race detector), so the rounds repeat
// until B demonstrably ran on a recycled one.
func TestDecodeStateRecycledSafely(t *testing.T) {
	made, restore := trace.CountDecodeStates()
	defer restore()
	rawB := encode(t, randomTrace(12, 900))
	recycled := 0
	for round := int64(0); round < 40 && recycled < 3; round++ {
		rawA := encode(t, randomTrace(20+round, 700))
		a, err := trace.Decode(bytes.NewReader(rawA)) // Decode closes its source
		if err != nil {
			t.Fatal(err)
		}
		before := snapshot(a)
		n := made()
		if _, err := trace.Decode(bytes.NewReader(rawB)); err != nil {
			t.Fatal(err)
		}
		if made() == n {
			recycled++
		}
		if !reflect.DeepEqual(flatten(a), before) {
			t.Fatalf("round %d: decoding another trace changed a closed source's retained trace", round)
		}
	}
	if recycled == 0 {
		t.Fatal("no decode ever reused a pooled state: Close does not return it")
	}
}

// TestSourceFailsClosedAfterClose: Close hands the decode state back, so a
// later Drain must not touch it.
func TestSourceFailsClosedAfterClose(t *testing.T) {
	raw := encode(t, randomTrace(3, 100))
	src, err := trace.NewSource(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if tr, err := src.Drain(); err == nil || tr != nil {
		t.Fatalf("Drain after Close = (%v, %v), want an error", tr, err)
	}
}

// TestConcurrentDecodes: eight decodes share the pools at once (make race
// runs this under the race detector).
func TestConcurrentDecodes(t *testing.T) {
	var raws [][]byte
	var want []semantic
	for seed := int64(1); seed <= 8; seed++ {
		tr := randomTrace(seed, 1500)
		raws = append(raws, encode(t, tr))
		want = append(want, flatten(tr))
	}
	for rep := 0; rep < 4; rep++ {
		got, err := parallel.MapErr(context.Background(), 8, len(raws), func(i int) (*trace.Trace, error) {
			return trace.Decode(bytes.NewReader(raws[i]))
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !reflect.DeepEqual(flatten(got[i]), want[i]) {
				t.Fatalf("rep %d: concurrent decode %d diverged", rep, i)
			}
		}
	}
}

// TestDecodeAllocsPerTrace: decoding allocates per chunk, per table section
// and per trace — not per record, not per Taint/Ctl list and not per symbol.
func TestDecodeAllocsPerTrace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool forget items at random")
	}
	tr := randomTrace(5, 1000)
	var buf bytes.Buffer
	if err := trace.EncodeChunked(tr, &buf, 100); err != nil { // ten chunks
		t.Fatal(err)
	}
	raw := buf.Bytes()
	lists := 0
	for i := range tr.Records {
		if len(tr.Records[i].Taint) > 0 {
			lists++
		}
		if len(tr.Records[i].Ctl) > 0 {
			lists++
		}
	}
	if lists < 500 {
		t.Fatalf("fixture has only %d non-empty taint lists; it would not notice per-list allocation", lists)
	}
	rd := bytes.NewReader(raw)
	decode := func() {
		rd.Reset(raw)
		if _, err := trace.Decode(rd); err != nil {
			t.Fatal(err)
		}
	}
	// What compress/flate itself allocates inflating this payload (Huffman
	// link tables, per deflate block) is not the decoder's to save.
	var zr gzip.Reader
	inflate := func() {
		rd.Reset(raw[len(trace.FormatMagic):])
		if err := zr.Reset(rd); err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, &zr); err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm the pools
	inflate()
	const chunks = 10
	// Per chunk: its list arena. Per table section (symbols, PIDs): one string
	// backing all of its strings. The constant covers the trace, the source,
	// the record slice, the symbol and stack tables with their maps, the PID
	// list as it grows and the crashed PID. A string per symbol or PID would
	// add the fixture's 19 of them and fail.
	budget := float64(chunks + 2 + 16)
	if got := testing.AllocsPerRun(20, decode) - testing.AllocsPerRun(20, inflate); got > budget {
		t.Fatalf("decoding %d records in %d chunks allocated %.0f times on top of the inflater, budget %.0f (%d symbols)",
			len(tr.Records), chunks, got, budget, tr.NumSyms())
	}
}
