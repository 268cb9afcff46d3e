package apps_test

import (
	"context"
	"strings"
	"testing"

	"fcatch/internal/apps/toy"
	"fcatch/internal/apps/zookeeper"
	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/inject"
	"fcatch/internal/sim"
)

func TestZKFaultFreeRun(t *testing.T) {
	w := zookeeper.New()
	cfg := sim.Config{Seed: 1}
	w.Tune(&cfg)
	c := sim.NewCluster(cfg)
	w.Configure(c)
	out := c.Run()
	if err := w.Check(c, out); err != nil {
		t.Fatalf("fault-free: %v", err)
	}
}

func TestZKToleratesLeaderRestart(t *testing.T) {
	obs, err := core.Observe(zookeeper.New(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if obs.Faulty.CrashedPID != "zkleader#1" || !obs.Faulty.HasPID("zkleader#2") {
		t.Fatalf("leader restart missing: crashed=%s pids=%v", obs.Faulty.CrashedPID, obs.Faulty.PIDs)
	}
}

func TestZKDetectionAndEpochBug(t *testing.T) {
	w := zookeeper.New()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// No unpruned crash-regular candidates: every wait/poll is bounded.
	for _, r := range res.Reports {
		if r.Type == detect.CrashRegular {
			t.Errorf("unexpected crash-regular report in ZK: %s", r)
		}
	}
	if res.Regular.Pruned.LoopTimeout != 2 || res.Regular.Pruned.WaitTimeout != 2 {
		t.Errorf("pruned = %+v, want LoopTimeout=2 WaitTimeout=2", res.Regular.Pruned)
	}

	cur := find(res.Reports, detect.CrashRecovery, "currentEpoch")
	if cur == nil {
		t.Fatal("the epoch bug (Write vs Read on currentEpoch) not reported")
	}
	tg := inject.NewTriggerer(w, 1)
	out := tg.Trigger(cur)
	if out.Class != inject.TrueBug || out.FailureKind != "fatal" {
		t.Fatalf("epoch bug verdict = %v (%s)", out.Class, out.Detail)
	}
	if !strings.Contains(out.Detail, "unable to load database") {
		t.Fatalf("wrong failure: %s", out.Detail)
	}

	// The acceptedEpoch sibling pair and the torn-snapshot pair are benign.
	benign := 0
	for _, r := range res.Reports {
		if r == cur || r.Type != detect.CrashRecovery {
			continue
		}
		if v := tg.Trigger(r); v.Class != inject.Benign {
			t.Errorf("%s verdict = %v, want benign", r.ResClass, v.Class)
		} else {
			benign++
		}
	}
	if benign != 2 {
		t.Errorf("benign recovery FPs = %d, want 2 (acceptedEpoch + torn snapshot)", benign)
	}
}

func TestZKSanityCheckPrunesSnapshotRestore(t *testing.T) {
	// Figure 8: the validated re-read (R2) must be pruned by the
	// control-dependence analysis — only the validation read (R1) may pair.
	res, err := core.Detect(zookeeper.New(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	snapReports := 0
	for _, r := range res.Reports {
		if strings.Contains(r.ResClass, "snap-") {
			snapReports++
		}
	}
	if snapReports != 1 {
		t.Fatalf("snapshot reports = %d, want exactly 1 (R2 sanity-pruned)", snapReports)
	}
}

func TestToyWorkloadEndToEnd(t *testing.T) {
	w := toy.New()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tg := inject.NewTriggerer(w, 1)
	trueBugs := 0
	for _, r := range res.Reports {
		if tg.Trigger(r).Class == inject.TrueBug {
			trueBugs++
		}
	}
	if trueBugs < 2 {
		t.Fatalf("toy true bugs = %d, want at least the planted 2", trueBugs)
	}
}

func TestRandomCampaignOnToyMostlyTolerates(t *testing.T) {
	res, err := campaign.Run(context.Background(), toy.New(), campaign.Config{Strategy: campaign.StrategyRandom, Seed: 1, Budget: 60}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailureRuns == res.Runs {
		t.Fatal("every random crash failed; the workload tolerates nothing")
	}
}
