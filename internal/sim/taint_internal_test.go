package sim

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fcatch/internal/trace"
)

// taintInput draws one Guard argument relative to the reference set: fresh
// ascending ids (the polling-loop case, weighted so in-place extension runs
// for long stretches), old ids overlapping the set, a subset of it, an
// unsorted mix with duplicates, a run longer than maxTaint, ids below the
// set's newest that it does not hold, or nothing.
func taintInput(rng *rand.Rand, ref []trace.OpID, next *trace.OpID) []trace.OpID {
	fresh := func(n int) []trace.OpID {
		out := make([]trace.OpID, n)
		for i := range out {
			*next += trace.OpID(1 + rng.Intn(3))
			out[i] = *next
		}
		return out
	}
	pick := func(n int) []trace.OpID { // sorted sample of ref
		var out []trace.OpID
		for _, id := range ref {
			if len(out) < n && rng.Intn(2) == 0 {
				out = append(out, id)
			}
		}
		return out
	}
	switch k := rng.Intn(12); {
	case k < 6:
		return fresh(1 + rng.Intn(3))
	case k == 6:
		return append(pick(4), fresh(1+rng.Intn(2))...)
	case k == 7:
		return pick(8)
	case k == 8:
		in := append(append(pick(3), fresh(3)...), pick(2)...)
		rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		return in
	case k == 9:
		return fresh(maxTaint + rng.Intn(40))
	case k == 10:
		var in []trace.OpID
		for id := trace.OpID(1 + rng.Intn(5)); id < *next && len(in) < 3; id += trace.OpID(1 + rng.Intn(int(*next))) {
			in = append(in, id)
		}
		return in
	default:
		return nil
	}
}

// TestGrowTaintsMatchesMergeTaints drives the owned merge and mergeTaints
// side by side and checks, after every step, that they agree element for
// element and that every slice handed out earlier — as Record.Ctl through
// ctlTaints, as a saved ctlHist, as an RPC reply's WithTaint — still holds
// what it held when it was handed out.
func TestGrowTaintsMatchesMergeTaints(t *testing.T) {
	type handout struct{ alias, want []trace.OpID }
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var own, ref []trace.OpID
		var out []handout
		next := trace.OpID(0)
		for step := 0; step < 200; step++ {
			in := taintInput(rng, ref, &next)
			own, ref = growTaints(own, in), mergeTaints(ref, in)
			if !slices.Equal(own, ref) {
				t.Fatalf("seed %d step %d: growTaints(.., %v) = %v, mergeTaints = %v", seed, step, in, own, ref)
			}
			var alias []trace.OpID
			switch rng.Intn(3) {
			case 0:
				alias = own // prevHist in runHandlerFrame
			case 1:
				alias = mergeTaints(nil, own) // ctlTaints with one guarded scope
			default:
				alias = V(nil).WithTaint(own...).taint // an RPC reply
			}
			out = append(out, handout{alias, append([]trace.OpID(nil), alias...)})
			for i, h := range out {
				if !slices.Equal(h.alias, h.want) {
					t.Fatalf("seed %d step %d: slice handed out at step %d changed: %v, was %v", seed, step, i, h.alias, h.want)
				}
			}
			if rng.Intn(40) == 0 {
				own, ref = nil, nil // a new activation
			}
		}
	}
}

// TestGrowTaintsTwoOwners adopts one outside slice — another thread's
// ctlHist, spare capacity and all, as an RPC reply delivers it — into two
// owned sets and grows all three, each on its own goroutine so that under
// -race a shared backing array is a reported write/write race, not only a
// wrong answer.
func TestGrowTaintsTwoOwners(t *testing.T) {
	outside := growTaints(growTaints(nil, []trace.OpID{1}), []trace.OpID{2})
	if cap(outside) == len(outside) {
		t.Fatal("test needs an outside slice with spare capacity")
	}
	sets := [3][]trace.OpID{outside, growTaints(nil, outside), growTaints(nil, outside)}
	var refs [3][]trace.OpID
	var wg sync.WaitGroup
	for o := range sets {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			set, ref := sets[o], []trace.OpID{1, 2}
			for i := 0; i < 3*maxTaint; i++ {
				in := []trace.OpID{trace.OpID(10 + 3*i + o)}
				set, ref = growTaints(set, in), mergeTaints(ref, in)
			}
			sets[o], refs[o] = set, ref
		}(o)
	}
	wg.Wait()
	for o := range sets {
		if !slices.Equal(sets[o], refs[o]) {
			t.Errorf("owner %d: %v, want %v", o, sets[o], refs[o])
		}
	}
}
