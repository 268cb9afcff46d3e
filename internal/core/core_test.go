package core_test

import (
	"slices"
	"strings"
	"testing"
	"time"

	"fcatch/internal/apps/toy"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/inject"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// throwingToy is the toy workload plus one extra process that dies of an
// uncaught exception: every run of it fails, whatever the end state.
type throwingToy struct{ *toy.Workload }

func (w throwingToy) Configure(c *sim.Cluster) {
	w.Workload.Configure(c)
	c.StartProcess("extra", "m9", func(ctx *sim.Context) { ctx.Throw("IllegalState") })
}

// TestObserveRejectsFailedRun: observation accepts only correct runs
// (§3.1), and a run that failed by the outcome's own evidence — here an
// uncaught exception the workload's end-state check does not look for — is
// not correct.
func TestObserveRejectsFailedRun(t *testing.T) {
	w := throwingToy{toy.New()}
	if _, out := core.Run(w, sim.Config{Seed: 1}); out.FailureKind() != "exception" {
		t.Fatalf("run ends in %q, want exception", out.FailureKind())
	}
	_, err := core.Observe(w, core.DefaultOptions())
	if err == nil {
		t.Fatal("Observe accepted a fault-free run that threw an uncaught exception")
	}
	if !strings.Contains(err.Error(), "exception") || !strings.Contains(err.Error(), "IllegalState") {
		t.Fatalf("error does not name the failure: %v", err)
	}
}

// TestObserveValidatesScenario: a library caller's scenario passes the same
// check the CLI parser applies, so an unknown action or a siteless drop is
// refused instead of running as a node crash.
func TestObserveValidatesScenario(t *testing.T) {
	for _, sc := range [][]sim.FaultSpec{
		{{Action: "banana"}},
		{{CrashStep: 100, Action: trace.ActionKernelDrop}},
		{{CrashStep: 100, Delay: 5}},
	} {
		opts := core.DefaultOptions()
		opts.Scenario = sc
		_, err := core.Observe(toy.New(), opts)
		if err == nil || !strings.HasPrefix(err.Error(), "sim: scenario") {
			t.Errorf("Observe(%s) error = %v, want a sim: scenario error", sim.FormatScenario(sc), err)
		}
	}
}

func TestObserveProducesCorrectRunPair(t *testing.T) {
	obs, err := core.Observe(toy.New(), core.DefaultOptions())
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if obs.FaultFree == nil || obs.Faulty == nil {
		t.Fatal("missing traces")
	}
	if crashRecord(obs.Faulty) == nil {
		t.Fatal("faulty run recorded no crash")
	}
	if obs.FaultFree.Len() == 0 || obs.Faulty.Len() == 0 {
		t.Fatal("empty traces")
	}
	// The faulty run must have seen the recovery incarnation.
	if pids := obs.Faulty.StartedPIDs(); !slices.Contains(pids, "worker#2") {
		t.Fatalf("no recovery process in faulty run; pids=%v", pids)
	}
}

// crashRecord is the first crash record of a trace, nil when nothing crashed.
func crashRecord(tr *trace.Trace) *trace.Record {
	if c := tr.Filter(trace.Query{Kinds: []trace.Kind{trace.KCrash}}); len(c) > 0 {
		return c[0]
	}
	return nil
}

func TestCheckpointPairSharesPrefix(t *testing.T) {
	obs, err := core.Observe(toy.New(), core.DefaultOptions())
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	tf, ty := obs.FaultFree, obs.Faulty
	crashStep := crashRecord(ty).TS
	n := 0
	for i := 0; i < tf.Len() && i < ty.Len(); i++ {
		a, b := tf.Records[i], ty.Records[i]
		if a.TS >= crashStep || b.TS >= crashStep {
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
	if c1, c2 := crashRecord(o1.Faulty).TS, crashRecord(o2.Faulty).TS; c1 != c2 {
		t.Fatalf("crash steps differ: %d vs %d", c1, c2)
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
	if n := res.Regular.Tally.Of(detect.RuleWaitTimeout); n < 1 {
		t.Errorf("expected >=1 wait-timeout pruned, got %d", n)
	}
	// /job/status is reset before read -> dependence pruning; /job/note has
	// no impact -> impact pruning.
	if rec := res.Recovery.Tally; rec.Of(detect.RuleSanityCheck)+rec.Of(detect.RuleReset) < 1 {
		t.Errorf("expected >=1 dependence-pruned pair, got %v", rec)
	}
	if res.Recovery.Tally.Of(detect.RuleImpact) < 1 {
		t.Errorf("expected >=1 impact-pruned pair, got %v", res.Recovery.Tally)
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
	if !slices.Equal(got.StartedPIDs(), obs.FaultFree.StartedPIDs()) {
		t.Fatal("round-trip lost the thread starts")
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
