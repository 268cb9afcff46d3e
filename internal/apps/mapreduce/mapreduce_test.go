package mapreduce_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/inject"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

func find(reports []*detect.Report, typ detect.BugType, classHint string) *detect.Report {
	for _, r := range reports {
		if r.Type == typ && strings.Contains(r.ResClass, classHint) {
			return r
		}
	}
	return nil
}

func TestWordCountFaultFreeRun(t *testing.T) {
	for _, w := range []*mapreduce.Workload{mapreduce.NewMR1(), mapreduce.NewMR2()} {
		if _, out := core.Run(w, sim.Config{Seed: 1}); out.Failed() {
			t.Errorf("%s fault-free run incorrect: %s: %s", w.Name(), out.FailureKind(), out.Detail())
		}
	}
}

func TestWordCountToleratesObservationCrash(t *testing.T) {
	w := mapreduce.NewMR1()
	obs, err := core.Observe(w, core.DefaultOptions())
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	crashes := obs.Faulty.Filter(trace.Query{Kinds: []trace.Kind{trace.KCrash}})
	if len(crashes) == 0 || obs.Faulty.Str(crashes[0].Aux) != "task1#1" {
		t.Fatalf("crash records %v, want the task1 attempt's first", crashes)
	}
	if !slices.Contains(obs.Faulty.StartedPIDs(), "task1#2") {
		t.Fatal("no recovery attempt in the faulty run")
	}
}

func TestMR1WorkloadDetectsPlantedBugs(t *testing.T) {
	res, err := core.Detect(mapreduce.NewMR1(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if find(res.Reports, detect.CrashRegular, "cv:rpc-reply") == nil {
		t.Error("MR3 (untimed RPC client wait) not reported")
	}
	mr1 := find(res.Reports, detect.CrashRecovery, "task#.commit")
	if mr1 == nil {
		t.Fatal("MR1 (Figure 1, T.commit) not reported")
	}
	if mr1.OpsDesc != "Write vs Read" {
		t.Errorf("MR1 ops = %q", mr1.OpsDesc)
	}
	if find(res.Reports, detect.CrashRecovery, "task#.state") == nil {
		t.Error("MR4 (stale COMMITTING state) not reported")
	}
	// Fault-tolerance pruning at work: exactly one timed-wait candidate
	// (the RM's bounded job wait).
	if n := res.Regular.Tally.Of(detect.RuleWaitTimeout); n != 1 {
		t.Errorf("wait-timeout pruned = %d, want 1", n)
	}
}

func TestMR2WorkloadDetectsPlantedBugs(t *testing.T) {
	res, err := core.Detect(mapreduce.NewMR2(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if find(res.Reports, detect.CrashRecovery, "job#/job.xml") == nil {
		t.Error("MR2 way 1 (job.xml) not reported")
	}
	if find(res.Reports, detect.CrashRecovery, "split-#") == nil {
		t.Error("MR2 way 2 (split files) not reported")
	}
	if find(res.Reports, detect.CrashRecovery, "COMMIT_STARTED") == nil {
		t.Error("MR5 (commit flag file) not reported")
	}
	if find(res.Reports, detect.CrashRegular, "cv:rpc-reply") == nil {
		t.Error("MR3 must also surface from the MR2 workload")
	}
}

func TestMR1TriggeringConfirmsBugs(t *testing.T) {
	w := mapreduce.NewMR1()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tg := inject.NewTriggerer(w, 1)
	verdicts := map[string]inject.Classification{}
	for _, r := range res.Reports {
		verdicts[r.ResClass+"/"+r.W.Site] = tg.Trigger(r).Class
	}
	assertClass := func(classHint, wSiteHint string, want inject.Classification) {
		t.Helper()
		for key, got := range verdicts {
			if strings.Contains(key, classHint) && strings.Contains(key, wSiteHint) {
				if got != want {
					t.Errorf("%s: verdict %v, want %v", key, got, want)
				}
				return
			}
		}
		t.Errorf("no verdict for %s", classHint)
	}
	assertClass("task#.commit", "", inject.TrueBug)
	assertClass("cv:rpc-reply", "", inject.TrueBug)
	// The COMMITTING write is MR4 (a hang); the done write is benign.
	assertClass("task#.state", "am.go:35", inject.TrueBug)
	assertClass("task#.state", "am.go:42", inject.Benign)
}

func TestMR3TriggerableByReplyDrop(t *testing.T) {
	w := mapreduce.NewMR1()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mr3 := find(res.Reports, detect.CrashRegular, "cv:rpc-reply")
	if mr3 == nil {
		t.Fatal("MR3 missing")
	}
	out := inject.NewTriggerer(w, 1).Trigger(mr3)
	if !out.ByAction["kernel-drop"] {
		t.Error("dropping the RPC reply must hang the caller (MR3)")
	}
}

func TestRandomInjectionFindsTheFalseNegative(t *testing.T) {
	res, err := campaign.Run(context.Background(), mapreduce.NewMR1(), campaign.Config{Strategy: campaign.StrategyRandom, Seed: 1, Budget: 120}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailureRuns == 0 {
		t.Fatal("random injection found nothing; the §8.3 hang window is gone")
	}
	// The dominant signature is the AM stuck awaiting tasks — the bug whose
	// hazardous write is invisible to selective tracing.
	found := false
	for sig := range res.Failures {
		if strings.Contains(sig, "hang:am/main@") {
			found = true
		}
	}
	if !found {
		t.Fatalf("the finish-watcher hang never manifested: %v", res.Failures)
	}
	if rate := float64(res.FailureRuns) / float64(res.Runs); rate > 0.25 {
		t.Errorf("failure rate %.0f%% is implausibly high for random injection", rate*100)
	}
}
