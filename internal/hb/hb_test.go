package hb_test

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"fcatch/internal/hb"
	"fcatch/internal/trace"
)

// build constructs a small synthetic trace:
//
//	nodeA main:   send(m) ──► nodeB handler: write W, enq(e) ──► nodeB event handler: write W2
//	nodeB main:   read R
func build() (*trace.Trace, map[string]trace.OpID) {
	tr := trace.New()
	ids := map[string]trace.OpID{}
	y := tr.Intern

	ids["a.start"] = tr.Append(trace.Record{Kind: trace.KThreadStart, PID: y("a#1"), Thread: 1, Causor: trace.NoOp})
	ids["b.start"] = tr.Append(trace.Record{Kind: trace.KThreadStart, PID: y("b#1"), Thread: 2, Causor: trace.NoOp})
	ids["send"] = tr.Append(trace.Record{Kind: trace.KMsgSend, PID: y("a#1"), Thread: 1, Frame: ids["a.start"], Target: y("b#1"), Aux: y("m")})
	ids["h.begin"] = tr.Append(trace.Record{Kind: trace.KHandlerBegin, PID: y("b#1"), Thread: 2, Frame: ids["b.start"], Causor: ids["send"], Aux: y("msg:m")})
	ids["W"] = tr.Append(trace.Record{Kind: trace.KHeapWrite, PID: y("b#1"), Thread: 2, Frame: ids["h.begin"], Res: y("heap:b#1:o.f")})
	ids["enq"] = tr.Append(trace.Record{Kind: trace.KEventEnq, PID: y("b#1"), Thread: 2, Frame: ids["h.begin"], Aux: y("e")})
	ids["e.begin"] = tr.Append(trace.Record{Kind: trace.KHandlerBegin, PID: y("b#1"), Thread: 3, Frame: ids["b.start"], Causor: ids["enq"], Aux: y("event:e")})
	ids["W2"] = tr.Append(trace.Record{Kind: trace.KHeapWrite, PID: y("b#1"), Thread: 3, Frame: ids["e.begin"], Res: y("heap:b#1:o.g")})
	ids["R"] = tr.Append(trace.Record{Kind: trace.KHeapRead, PID: y("b#1"), Thread: 2, Frame: ids["b.start"], Res: y("heap:b#1:o.f"), Src: ids["W"]})
	return tr, ids
}

func TestForwardClosureFollowsCausalChains(t *testing.T) {
	tr, ids := build()
	g := hb.New(tr)
	closure := g.ForwardClosureDense([]trace.OpID{ids["send"]})

	for _, want := range []string{"h.begin", "W", "enq", "e.begin", "W2"} {
		if !closure[ids[want]] {
			t.Errorf("closure missing %s", want)
		}
	}
	if closure[ids["R"]] {
		t.Error("closure wrongly includes the main-thread read")
	}
	if closure[ids["a.start"]] {
		t.Error("closure wrongly includes the sender's own activation")
	}
}

func TestForwardClosureFromActivationSeed(t *testing.T) {
	tr, ids := build()
	g := hb.New(tr)
	closure := g.ForwardClosureDense([]trace.OpID{ids["b.start"]})
	// Everything under nodeB's main thread, including nested handler work.
	for _, want := range []string{"W", "W2", "R", "enq"} {
		if !closure[ids[want]] {
			t.Errorf("activation closure missing %s", want)
		}
	}
	if closure[ids["send"]] {
		t.Error("activation closure must not include the remote sender's op")
	}
}

func TestForwardClosureIsIdempotent(t *testing.T) {
	tr, ids := build()
	g := hb.New(tr)
	c1 := g.ForwardClosureDense([]trace.OpID{ids["send"]})
	var again []trace.OpID
	for id, in := range c1 {
		if in {
			again = append(again, trace.OpID(id))
		}
	}
	c2 := g.ForwardClosureDense(again)
	for id, in := range c1 {
		if in && !c2[id] {
			t.Fatalf("closure not idempotent: %d lost", id)
		}
	}
}

func TestForwardClosureMonotoneInSeeds(t *testing.T) {
	tr, ids := build()
	g := hb.New(tr)
	f := func(pickSend, pickEnq bool) bool {
		var seeds []trace.OpID
		if pickSend {
			seeds = append(seeds, ids["send"])
		}
		if pickEnq {
			seeds = append(seeds, ids["enq"])
		}
		small := g.ForwardClosureDense(seeds)
		big := g.ForwardClosureDense(append(seeds, ids["b.start"]))
		for id, in := range small {
			if in && !big[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardChain(t *testing.T) {
	tr, ids := build()
	g := hb.New(tr)
	chain := g.BackwardChain(ids["W2"])
	// W2 ← event handler ← enq ← msg handler ← send ← a's thread start.
	want := []trace.OpID{ids["enq"], ids["send"]}
	found := map[trace.OpID]bool{}
	for _, id := range chain {
		found[id] = true
	}
	for _, w := range want {
		if !found[w] {
			t.Errorf("backward chain missing op %d; chain=%v", w, chain)
		}
	}
}

func TestCrossNodeAncestor(t *testing.T) {
	tr, ids := build()
	g := hb.New(tr)
	wp := g.CrossNodeAncestor(ids["W2"])
	if wp == nil || wp.ID != ids["send"] {
		t.Fatalf("CrossNodeAncestor(W2) = %v, want the remote send", wp)
	}
	if g.CrossNodeAncestor(ids["R"]) != nil {
		t.Fatal("main-thread read has no cross-node ancestor")
	}
}

func TestCrossNodeAncestorSkipsKVNotify(t *testing.T) {
	tr := trace.New()
	y := tr.Intern
	aStart := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: y("a#1"), Thread: 1, Causor: trace.NoOp})
	update := tr.Append(trace.Record{Kind: trace.KKVUpdate, PID: y("a#1"), Thread: 1, Frame: aStart, Res: y("zk:/x"), Aux: y("set")})
	notify := tr.Append(trace.Record{Kind: trace.KKVNotify, PID: y("a#1"), Thread: 1, Frame: aStart, Res: y("zk:/x"), Causor: update, Target: y("b#1")})
	bStart := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: y("b#1"), Thread: 2, Causor: trace.NoOp})
	hBegin := tr.Append(trace.Record{Kind: trace.KHandlerBegin, PID: y("b#1"), Thread: 2, Frame: bStart, Causor: notify})
	w := tr.Append(trace.Record{Kind: trace.KHeapWrite, PID: y("b#1"), Thread: 2, Frame: hBegin, Res: y("heap:b#1:o.f")})

	g := hb.New(tr)
	wp := g.CrossNodeAncestor(w)
	if wp == nil || wp.ID != update {
		t.Fatalf("ancestor = %v, want the KV update (not the notify)", wp)
	}
}

func TestEscapingSeeds(t *testing.T) {
	tr, ids := build()
	g := hb.New(tr)
	seeds := g.EscapingSeeds("a#1")
	if len(seeds) != 1 || seeds[0] != ids["send"] {
		t.Fatalf("EscapingSeeds(a) = %v, want just the send", seeds)
	}
	if got := g.EscapingSeeds("b#1"); len(got) != 0 {
		// The enqueue is intra-node: it does not escape.
		t.Fatalf("EscapingSeeds(b) = %v, want none", got)
	}
}

// sameIndex compares every group of two indexes over equal-length traces,
// the op-keyed ones through their accessors.
func sameIndex(a, b *trace.Index) bool {
	if !reflect.DeepEqual(a.ByKind, b.ByKind) || !reflect.DeepEqual(a.ByRes, b.ByRes) ||
		!reflect.DeepEqual(a.BySite, b.BySite) || !reflect.DeepEqual(a.ThreadStart, b.ThreadStart) {
		return false
	}
	for id := trace.OpID(0); int(id) <= len(a.T.Records)+1; id++ {
		if !reflect.DeepEqual(a.CauseesOf(id), b.CauseesOf(id)) || !reflect.DeepEqual(a.FrameOpsOf(id), b.FrameOpsOf(id)) {
			return false
		}
	}
	return true
}

// tiled repeats build()'s nine records, op references shifted, until the
// trace holds at least n — Encode starts a new chunk every 1 024 records.
func tiled(n int) *trace.Trace {
	unit, _ := build()
	tr := trace.New()
	for y := 1; y < unit.NumSyms(); y++ {
		tr.Intern(unit.Str(trace.Sym(y))) // same strings in the same order: same Syms
	}
	for len(tr.Records) < n {
		off := trace.OpID(len(tr.Records))
		for _, r := range unit.Records {
			for _, ref := range []*trace.OpID{&r.Frame, &r.Causor, &r.Src} {
				if *ref != trace.NoOp {
					*ref += off
				}
			}
			tr.Append(r)
		}
	}
	return tr
}

// TestNewFromSourceMatchesNew pins the decode-then-build path: the graph
// built from the source of an FCT2 stream, of one chunk or of several, equals
// the one built from the trace that was encoded.
func TestNewFromSourceMatchesNew(t *testing.T) {
	small, _ := build()
	for name, tr := range map[string]*trace.Trace{"one chunk": small, "three chunks": tiled(2500)} {
		want := hb.New(tr)
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		src, err := trace.NewSource(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := hb.NewFromSource(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameIndex(g.Ix, want.Ix) {
			t.Fatalf("%s: index built from the decoded FCT2 stream diverged", name)
		}
		// The graphs must also agree behaviorally, not just structurally.
		for op := trace.OpID(1); int(op) <= len(tr.Records); op++ {
			if got, exp := g.BackwardChain(op), want.BackwardChain(op); !reflect.DeepEqual(got, exp) {
				t.Fatalf("%s, op %d: BackwardChain diverged: %v vs %v", name, op, got, exp)
			}
		}
	}
}
