package core_test

import (
	"errors"
	"testing"

	"fcatch/internal/apps/toy"
	"fcatch/internal/core"
	"fcatch/internal/obs"
	"fcatch/internal/sim"
)

// flakyFirstFaulty wraps a workload so its first faulty attempt fails the
// correctness check, forcing observe's retry path. Tune records, per run,
// the requested crash step and whether the run folds its records away.
type flakyFirstFaulty struct {
	core.Workload
	checks      int
	faultySteps []int64 // requested CrashStep of each faulty attempt
	foldedRuns  int     // runs that had Fold set
}

func (f *flakyFirstFaulty) Tune(cfg *sim.Config) {
	f.Workload.Tune(cfg)
	if cfg.Plan != nil {
		f.faultySteps = append(f.faultySteps, cfg.Plan.Scenario()[0].CrashStep)
	}
	if cfg.Fold != nil {
		f.foldedRuns++
	}
}

func (f *flakyFirstFaulty) Check(c *sim.Cluster) error {
	f.checks++
	if f.checks == 2 { // check #1 is the fault-free run
		return errors.New("synthetic first-attempt failure")
	}
	return f.Workload.Check(c)
}

// TestObserveRetryNudgesCrashStep pins the retry loop's contract: a faulty
// attempt that fails its correctness check is retried at a nudged crash
// step, and each graph is built once, after its run — no run streams trace
// windows into an index, and an attempt that gets thrown away is never
// indexed.
func TestObserveRetryNudgesCrashStep(t *testing.T) {
	w := &flakyFirstFaulty{Workload: toy.New()}
	opts := core.DefaultOptions()
	opts.Metrics = obs.New()
	o, gf, gy, err := core.ObserveIndexed(w, opts)
	if err != nil {
		t.Fatalf("ObserveIndexed: %v", err)
	}
	if gf == nil || gy == nil {
		t.Fatal("missing happens-before graphs")
	}

	total := o.FaultFreeOutcome.Steps
	step0 := int64(float64(total) * 0.12) // PhaseBegin's fraction
	want := []int64{step0, step0 + total/23 + 7}
	if len(w.faultySteps) != len(want) {
		t.Fatalf("faulty attempts = %d (%v), want %d", len(w.faultySteps), w.faultySteps, len(want))
	}
	for i, s := range want {
		if w.faultySteps[i] != s {
			t.Fatalf("attempt %d requested step %d, want %d (nudge broken)", i, w.faultySteps[i], s)
		}
	}

	if w.foldedRuns != 0 {
		t.Fatalf("%d observation run(s) folded their records, want every one kept", w.foldedRuns)
	}
	spans := opts.Metrics.Snapshot().Spans
	for _, name := range []string{"core/index/fault-free", "core/index/faulty"} {
		if got := spans[name].Count; got != 1 {
			t.Fatalf("%s built %d times over %d faulty attempts, want once", name, got, len(w.faultySteps))
		}
	}
	if len(o.CrashedPIDs) == 0 {
		t.Fatal("observation recorded no crashed PIDs")
	}
}
