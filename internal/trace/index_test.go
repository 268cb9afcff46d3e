package trace_test

import (
	"reflect"
	"testing"

	"fcatch/internal/trace"
)

// referenceIndex is the naive index: maps and append, one record at a time —
// the body of the incremental Index.Extend that BuildIndex's two passes
// replaced, kept here as the definition of what every group contains.
type referenceIndex struct {
	ByKind, ByRes, BySite [][]trace.OpID
	Causees, FrameOps     map[trace.OpID][]trace.OpID
	ThreadStart           map[int]trace.OpID
}

func buildReference(t *trace.Trace) *referenceIndex {
	ix := &referenceIndex{
		ByKind:      make([][]trace.OpID, int(trace.KRestart)+1),
		ByRes:       make([][]trace.OpID, t.NumSyms()),
		BySite:      make([][]trace.OpID, t.NumSyms()),
		Causees:     map[trace.OpID][]trace.OpID{},
		FrameOps:    map[trace.OpID][]trace.OpID{},
		ThreadStart: map[int]trace.OpID{},
	}
	for i := range t.Records {
		r := &t.Records[i]
		ix.ByKind[r.Kind] = append(ix.ByKind[r.Kind], r.ID)
		if r.Res != trace.NoSym {
			ix.ByRes[r.Res] = append(ix.ByRes[r.Res], r.ID)
		}
		// Fault bookkeeping records reuse the trigger's site; they are not
		// operations the injector counts, so they stay out of BySite.
		if r.Site != trace.NoSym && r.Kind != trace.KCrash && r.Kind != trace.KRestart {
			ix.BySite[r.Site] = append(ix.BySite[r.Site], r.ID)
		}
		if r.Kind.IsActivation() || r.Kind == trace.KKVNotify {
			if r.Causor != trace.NoOp {
				ix.Causees[r.Causor] = append(ix.Causees[r.Causor], r.ID)
			}
		}
		if r.Kind == trace.KThreadStart {
			ix.ThreadStart[r.Thread] = r.ID
		}
		if r.Frame != trace.NoOp {
			ix.FrameOps[r.Frame] = append(ix.FrameOps[r.Frame], r.ID)
		}
	}
	return ix
}

// TestBuildIndexMatchesReference: every group BuildIndex carves — the empty
// ones included, which must be nil — holds exactly what the naive builder
// collects, on both observation traces of every workload and on random
// traces; and no group has room for an append to run into its neighbour.
func TestBuildIndexMatchesReference(t *testing.T) {
	traces := observedTraces(t)
	for seed := int64(1); seed <= 50; seed++ {
		traces[string(rune('A'+seed))+"/random"] = randomTrace(seed, 50+int(seed)*17)
	}
	traces["empty"] = trace.New()
	for name, tr := range traces {
		want, got := buildReference(tr), trace.BuildIndex(tr)
		if !reflect.DeepEqual(got.ByKind, want.ByKind) {
			t.Errorf("%s: ByKind differs", name)
		}
		if !reflect.DeepEqual(got.ByRes, want.ByRes) {
			t.Errorf("%s: ByRes differs", name)
		}
		if !reflect.DeepEqual(got.BySite, want.BySite) {
			t.Errorf("%s: BySite differs", name)
		}
		if !reflect.DeepEqual(got.ThreadStart, want.ThreadStart) {
			t.Errorf("%s: ThreadStart differs", name)
		}
		// Every op id, and one on either side of the trace.
		for id := trace.OpID(-1); int(id) <= len(tr.Records)+1; id++ {
			if c := got.CauseesOf(id); !reflect.DeepEqual(c, want.Causees[id]) {
				t.Errorf("%s: CauseesOf(%d) = %v, want %v", name, id, c, want.Causees[id])
			}
			if f := got.FrameOpsOf(id); !reflect.DeepEqual(f, want.FrameOps[id]) {
				t.Errorf("%s: FrameOpsOf(%d) = %v, want %v", name, id, f, want.FrameOps[id])
			}
			for _, g := range [][]trace.OpID{got.CauseesOf(id), got.FrameOpsOf(id)} {
				if cap(g) != len(g) {
					t.Errorf("%s: an op-keyed group of %d has spare capacity", name, id)
				}
			}
		}
		for _, groups := range [][][]trace.OpID{got.ByKind, got.ByRes, got.BySite} {
			for _, g := range groups {
				if cap(g) != len(g) {
					t.Errorf("%s: a group of %d ids has capacity %d", name, len(g), cap(g))
				}
			}
		}
	}
}
