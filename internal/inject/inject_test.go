package inject

import (
	"testing"

	"fcatch/internal/apps/toy"
	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/detect"
)

func TestClassificationOrdering(t *testing.T) {
	// The strongest verdict across fault kinds must win.
	if !(TrueBug < Expected && Expected < Benign) {
		t.Fatal("classification severity order broken")
	}
	if TrueBug.String() != "true-bug" || Expected.String() != "expected" || Benign.String() != "benign" {
		t.Fatal("classification names broken")
	}
}

func TestTriggerAllPreservesOrder(t *testing.T) {
	w := toy.New()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tg := NewTriggerer(w, 1)
	outs := tg.TriggerAll(res.Reports)
	if len(outs) != len(res.Reports) {
		t.Fatalf("outcomes = %d, reports = %d", len(outs), len(res.Reports))
	}
	for i := range outs {
		if outs[i].Report != res.Reports[i] {
			t.Fatal("outcome order diverges from report order")
		}
	}
}

func TestTriggerCrashRegularTriesAllThreeFaults(t *testing.T) {
	w := toy.New()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tg := NewTriggerer(w, 1)
	for _, r := range res.Reports {
		out := tg.Trigger(r)
		if r.Type == detect.CrashRegular {
			for _, k := range []string{"node-crash", "kernel-drop", "app-drop"} {
				if _, ok := out.ByAction[k]; !ok {
					t.Errorf("crash-regular report missing %s attempt", k)
				}
			}
		} else {
			if _, ok := out.ByAction["node-crash"]; !ok || len(out.ByAction) != 1 {
				t.Errorf("crash-recovery report should try exactly a node crash: %v", out.ByAction)
			}
		}
	}
}

func TestTriggerWithoutWPrimeIsBenign(t *testing.T) {
	w := toy.New()
	tg := NewTriggerer(w, 1)
	out := tg.Trigger(&detect.Report{Type: detect.CrashRegular})
	if out.Class != Benign {
		t.Fatalf("report without W' classified %v", out.Class)
	}
}

func TestRandomCampaignDeterministic(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyRandom, Seed: 7, Budget: 25}
	a, err := campaign.Run(toy.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign.Run(toy.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FailureRuns != b.FailureRuns || len(a.Failures) != len(b.Failures) {
		t.Fatalf("campaign not deterministic: %v vs %v", a.Failures, b.Failures)
	}
}

func TestRandomResultSignaturesSorted(t *testing.T) {
	r := &campaign.Result{Failures: map[string]int{"b": 2, "a": 2, "c": 9}}
	got := r.Signatures()
	if len(got) != 3 || got[0] != "c" || got[1] != "a" || got[2] != "b" {
		t.Fatalf("signatures = %v, want frequency desc then lexicographic", got)
	}
	if r.UniqueFailures() != 3 {
		t.Fatal("UniqueFailures wrong")
	}
}
