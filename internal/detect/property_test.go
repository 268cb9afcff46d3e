package detect

import (
	"fmt"
	"math/rand"
	"testing"

	"fcatch/internal/hb"
	"fcatch/internal/trace"
)

// genRegularTrace builds a random single-run trace of signals and waits on a
// handful of condition variables, with each signal either local (same-node
// thread) or remote-caused (inside a handler spawned by another node's
// send), and waits randomly timed.
func genRegularTrace(seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New()
	aStart := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("a#1"), Thread: 1, Causor: trace.NoOp})
	bStart := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("b#1"), Thread: 2, Causor: trace.NoOp})
	localStart := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("b#1"), Thread: 3, Causor: trace.NoOp})

	nCVs := 1 + rng.Intn(4)
	ts := int64(10)
	nextThread := 4
	for i := 0; i < 10+rng.Intn(25); i++ {
		cv := fmt.Sprintf("cv:b#1:c%d/%d", rng.Intn(nCVs), rng.Intn(nCVs))
		ts += int64(1 + rng.Intn(5))
		switch rng.Intn(3) {
		case 0: // wait on node b's main, possibly timed
			var flags uint32
			if rng.Intn(2) == 0 {
				flags = trace.FlagTimedWait
			}
			tr.Append(trace.Record{Kind: trace.KWait, PID: tr.Intern("b#1"), Thread: 2, Frame: bStart,
				Res: tr.Intern(cv), Flags: flags, TS: ts, Site: tr.Intern(fmt.Sprintf("w%d.go:1", rng.Intn(6)))})
		case 1: // remote-caused signal: a#1 sends, handler on b signals
			send := tr.Append(trace.Record{Kind: trace.KMsgSend, PID: tr.Intern("a#1"), Thread: 1, Frame: aStart,
				Target: tr.Intern("b#1"), TS: ts, Site: tr.Intern(fmt.Sprintf("s%d.go:1", rng.Intn(6)))})
			h := tr.Append(trace.Record{Kind: trace.KHandlerBegin, PID: tr.Intern("b#1"), Thread: nextThread,
				Frame: bStart, Causor: send})
			tr.Append(trace.Record{Kind: trace.KSignal, PID: tr.Intern("b#1"), Thread: nextThread, Frame: h,
				Res: tr.Intern(cv), TS: ts + 1, Site: tr.Intern(fmt.Sprintf("g%d.go:1", rng.Intn(6)))})
			nextThread++
		case 2: // purely local signal
			tr.Append(trace.Record{Kind: trace.KSignal, PID: tr.Intern("b#1"), Thread: 3, Frame: localStart,
				Res: tr.Intern(cv), TS: ts, Site: tr.Intern(fmt.Sprintf("l%d.go:1", rng.Intn(6)))})
		}
	}
	return tr
}

// TestRegularDetectorInvariants checks, across many random traces, the
// structural guarantees of every crash-regular report.
func TestRegularDetectorInvariants(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		tr := genRegularTrace(seed)
		g := hb.New(tr)
		res := DetectRegularOpts(g, "fuzz", Options{})
		for _, r := range res.Reports {
			w, rd := tr.At(r.W.Op), tr.At(r.R.Op)
			if w == nil || rd == nil {
				t.Fatalf("seed %d: report references missing ops: %s", seed, r)
			}
			if w.Kind != trace.KSignal || rd.Kind != trace.KWait {
				t.Fatalf("seed %d: wrong op kinds: %s", seed, r)
			}
			if w.ID <= rd.ID {
				t.Fatalf("seed %d: paired signal does not follow the wait: %s", seed, r)
			}
			if w.Thread == rd.Thread {
				t.Fatalf("seed %d: same-thread pair reported: %s", seed, r)
			}
			if rd.HasFlag(trace.FlagTimedWait) {
				t.Fatalf("seed %d: timed wait reported: %s", seed, r)
			}
			if w.Res != rd.Res {
				t.Fatalf("seed %d: cross-resource pair: %s", seed, r)
			}
			if r.WPrime == nil {
				t.Fatalf("seed %d: no W': %s", seed, r)
			}
			wp := tr.At(r.WPrime.Op)
			if wp == nil || wp.PID == w.PID {
				t.Fatalf("seed %d: W' not on a different node: %s", seed, r)
			}
			// W' must be a causal ancestor of W.
			found := false
			for _, anc := range g.BackwardChain(w.ID) {
				if anc == wp.ID {
					found = true
				}
			}
			if !found {
				t.Fatalf("seed %d: W' is not an ancestor of W: %s", seed, r)
			}
		}
		// Purely local signals must never produce reports.
		for _, r := range res.Reports {
			w := tr.At(r.W.Op)
			if w.Thread == 3 {
				t.Fatalf("seed %d: local-thread signal reported: %s", seed, r)
			}
		}
	}
}

// TestRegularDetectorDeterministicOnRandomTraces: detection output is a
// pure function of the trace.
func TestRegularDetectorDeterministicOnRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		tr := genRegularTrace(seed)
		a := DetectRegularOpts(hb.New(tr), "fuzz", Options{})
		b := DetectRegularOpts(hb.New(tr), "fuzz", Options{})
		if len(a.Reports) != len(b.Reports) || a.Pruned != b.Pruned {
			t.Fatalf("seed %d: nondeterministic detection", seed)
		}
		for i := range a.Reports {
			if a.Reports[i].Key() != b.Reports[i].Key() {
				t.Fatalf("seed %d: report order/content differs", seed)
			}
		}
	}
}

// TestRegularDetectorPruningOnlyRemoves: with pruning disabled, the report
// set is a superset (monotonicity on arbitrary traces).
func TestRegularDetectorPruningOnlyRemoves(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		tr := genRegularTrace(seed)
		pruned := DetectRegularOpts(hb.New(tr), "fuzz", Options{})
		unpruned := DetectRegularOpts(hb.New(tr), "fuzz", Options{DisableTimeoutPruning: true})
		keys := map[string]bool{}
		for _, r := range unpruned.Reports {
			keys[r.Key()] = true
		}
		for _, r := range pruned.Reports {
			if !keys[r.Key()] {
				t.Fatalf("seed %d: pruning added report %s", seed, r)
			}
		}
		if len(unpruned.Reports) < len(pruned.Reports) {
			t.Fatalf("seed %d: pruning-off lost reports", seed)
		}
	}
}
