package core_test

import (
	"testing"
	"time"

	"fcatch/internal/apps/toy"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/inject"
	"fcatch/internal/trace"
)

func TestObserveProducesCorrectRunPair(t *testing.T) {
	obs, err := core.Observe(toy.New(), core.DefaultOptions())
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if obs.FaultFree == nil || obs.Faulty == nil {
		t.Fatal("missing traces")
	}
	if obs.Faulty.CrashedPID == "" {
		t.Fatal("faulty run recorded no crash")
	}
	if obs.FaultFree.Len() == 0 || obs.Faulty.Len() == 0 {
		t.Fatal("empty traces")
	}
	// The faulty run must have seen the recovery incarnation.
	found := false
	for _, pid := range obs.Faulty.PIDs {
		if pid == "worker#2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no recovery process in faulty run; pids=%v", obs.Faulty.PIDs)
	}
}

func TestCheckpointPairSharesPrefix(t *testing.T) {
	obs, err := core.Observe(toy.New(), core.DefaultOptions())
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	tf, ty := obs.FaultFree, obs.Faulty
	n := 0
	for i := 0; i < tf.Len() && i < ty.Len(); i++ {
		a, b := tf.Records[i], ty.Records[i]
		if a.TS >= ty.CrashStep || b.TS >= ty.CrashStep {
			break
		}
		if a.Kind != b.Kind || tf.Str(a.Res) != ty.Str(b.Res) || tf.Str(a.PID) != ty.Str(b.PID) || tf.Str(a.Site) != ty.Str(b.Site) {
			t.Fatalf("prefix diverges at record %d:\n  fault-free: %s\n  faulty:     %s", i, tf.Format(&a), ty.Format(&b))
		}
		n++
	}
	if n == 0 {
		t.Fatal("no shared prefix at all")
	}
}

func TestDeterministicReplay(t *testing.T) {
	opts := core.DefaultOptions()
	o1, err := core.Observe(toy.New(), opts)
	if err != nil {
		t.Fatalf("Observe#1: %v", err)
	}
	o2, err := core.Observe(toy.New(), opts)
	if err != nil {
		t.Fatalf("Observe#2: %v", err)
	}
	if o1.FaultFree.Len() != o2.FaultFree.Len() {
		t.Fatalf("fault-free traces differ in length: %d vs %d", o1.FaultFree.Len(), o2.FaultFree.Len())
	}
	for i := range o1.FaultFree.Records {
		a, b := o1.FaultFree.Format(&o1.FaultFree.Records[i]), o2.FaultFree.Format(&o2.FaultFree.Records[i])
		if a != b {
			t.Fatalf("record %d differs:\n  %s\n  %s", i, a, b)
		}
	}
	if o1.Faulty.CrashStep != o2.Faulty.CrashStep {
		t.Fatalf("crash steps differ: %d vs %d", o1.Faulty.CrashStep, o2.Faulty.CrashStep)
	}
}

func TestDetectFindsPlantedToyBugs(t *testing.T) {
	res, err := core.Detect(toy.New(), core.DefaultOptions())
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}

	var haveCR, haveCRec *detect.Report
	for _, r := range res.Reports {
		t.Logf("report: %s", r)
		if r.Type == detect.CrashRegular && r.OpsDesc == "Signal vs Wait" && r.ResClass == "cv:worker-ready" {
			haveCR = r
		}
		if r.Type == detect.CrashRecovery && r.ResClass == "heap:Task#.committed" {
			haveCRec = r
		}
	}
	if haveCR == nil {
		t.Error("planted crash-regular bug (worker-ready signal/wait) not reported")
	} else {
		if haveCR.WPrime == nil {
			t.Error("crash-regular report missing W'")
		} else if haveCR.WPrime.PID != "worker#1" {
			t.Errorf("W' should be on the worker, got %s", haveCR.WPrime.PID)
		}
	}
	if haveCRec == nil {
		t.Error("planted crash-recovery bug (Task.committed) not reported")
	}

	// The timed ack wait must have been pruned, not reported.
	for _, r := range res.Reports {
		if r.ResClass == "cv:server-ack" {
			t.Errorf("timeout-protected wait was reported: %s", r)
		}
	}
	if res.Regular.Pruned.WaitTimeout < 1 {
		t.Errorf("expected >=1 wait-timeout pruned, got %d", res.Regular.Pruned.WaitTimeout)
	}
	// /job/status is reset before read -> dependence pruning; /job/note has
	// no impact -> impact pruning.
	if res.Recovery.Pruned.Dependence < 1 {
		t.Errorf("expected >=1 dependence-pruned pair, got %+v", res.Recovery.Pruned)
	}
	if res.Recovery.Pruned.Impact < 1 {
		t.Errorf("expected >=1 impact-pruned pair, got %+v", res.Recovery.Pruned)
	}
}

func TestTriggerConfirmsToyBugs(t *testing.T) {
	w := toy.New()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	tg := inject.NewTriggerer(w, core.DefaultOptions().Seed)
	for _, r := range res.Reports {
		out := tg.Trigger(r)
		t.Logf("%s -> %s (%s) actions=%v", r, out.Class, out.FailureKind, out.ByAction)
		switch {
		case r.ResClass == "cv:worker-ready":
			if out.Class != inject.TrueBug {
				t.Errorf("crash-regular bug not confirmed: %s", out.Detail)
			}
			if !out.ByAction["node-crash"] || !out.ByAction["kernel-drop"] {
				t.Errorf("expected crash and kernel-drop to trigger, got %v", out.ByAction)
			}
		case r.ResClass == "heap:Task#.committed":
			if out.Class != inject.TrueBug {
				t.Errorf("crash-recovery bug not confirmed: %s", out.Detail)
			}
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	obs, err := core.Observe(toy.New(), core.DefaultOptions())
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	path := t.TempDir() + "/run.trace"
	if err := obs.FaultFree.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := trace.Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Len() != obs.FaultFree.Len() {
		t.Fatalf("round-trip length mismatch: %d vs %d", got.Len(), obs.FaultFree.Len())
	}
	if got.CrashStep != obs.FaultFree.CrashStep {
		t.Fatal("round-trip lost metadata")
	}
}

// TestTimingsStayWithinWallClock pins the Table 4 timing attribution:
// Detect runs its stages one after another on one goroutine, so the
// per-stage timings must sum to no more than the measured wall clock around
// it.
func TestTimingsStayWithinWallClock(t *testing.T) {
	start := time.Now()
	res, err := core.Detect(toy.New(), core.DefaultOptions())
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	wall := time.Since(start)

	tm := res.Observation.Timings
	for name, d := range map[string]time.Duration{
		"TracingFaultFree": tm.TracingFaultFree,
		"TracingFaulty":    tm.TracingFaulty,
		"AnalysisRegular":  tm.AnalysisRegular,
		"AnalysisRecovery": tm.AnalysisRecovery,
	} {
		if d < 0 {
			t.Errorf("%s is negative: %v", name, d)
		}
	}
	// A small epsilon absorbs clock granularity on the per-stage reads.
	if sum := tm.Overall(); sum > wall+5*time.Millisecond {
		t.Errorf("stage timings sum to %v, exceeding the %v wall clock", sum, wall)
	}
}
