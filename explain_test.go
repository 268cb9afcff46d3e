package fcatch_test

import (
	"fmt"
	"slices"
	"testing"

	"fcatch"
	"fcatch/internal/detect"
)

// TestExplainSumAcrossWorkloads pins the explain contract on all six
// workloads at seeds 1–3: every candidate the detectors judge gets exactly
// one verdict, so the per-rule kill counts always sum to the candidate count
// and the kept counts agree with the surviving reports. Each detector's
// tally is the kill table of its own decisions, and everything that reads
// the tally agrees with it: the Table 5 row and the detect/rule/* counters.
func TestExplainSumAcrossWorkloads(t *testing.T) {
	for _, w := range fcatch.Workloads() {
		t.Run(w.Name(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				checkExplainContract(t, w, seed)
			}
		})
	}
}

func checkExplainContract(t *testing.T, w fcatch.Workload, seed int64) {
	t.Helper()
	opts := fcatch.DefaultOptions()
	opts.Seed = seed
	opts.Detect.Explain = true
	opts.Metrics = fcatch.NewMetrics()
	res, err := fcatch.Detect(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	ds := fcatch.ExplainDecisions(res)
	kt := detect.KillTable(ds)

	sum := 0
	for _, rule := range fcatch.PruneRuleNames() {
		sum += kt[rule]
	}
	if sum != len(ds) {
		t.Errorf("seed %d: rule counts sum to %d, want %d (one verdict per candidate)", seed, sum, len(ds))
	}
	for rule := range kt {
		if !slices.Contains(fcatch.PruneRuleNames(), rule) {
			t.Errorf("seed %d: decision with unknown rule %q", seed, rule)
		}
	}

	// Kept crash-regular decisions are post-dedup: exactly the surviving
	// reports. Kept crash-recovery decisions are pre-dedup: at least the
	// surviving reports.
	reg, rec := res.Regular.Tally, res.Recovery.Tally
	if n := reg.Of(fcatch.RuleKept); n != len(res.Regular.Reports) {
		t.Errorf("seed %d: crash-regular kept = %d, want %d reports", seed, n, len(res.Regular.Reports))
	}
	if n := rec.Of(fcatch.RuleKept); n < len(res.Recovery.Reports) {
		t.Errorf("seed %d: crash-recovery kept = %d, want >= %d reports", seed, n, len(res.Recovery.Reports))
	}

	// Each detector's tally is the kill table of its own decisions.
	for _, c := range []struct {
		name      string
		tally     detect.Tally
		decisions []fcatch.Decision
	}{
		{"crash-regular", reg, res.Regular.Decisions},
		{"crash-recovery", rec, res.Recovery.Decisions},
	} {
		own := detect.KillTable(c.decisions)
		for _, rule := range fcatch.PruneRuleNames() {
			if got := c.tally.Of(rule); got != own[rule] {
				t.Errorf("seed %d: %s tally[%s] = %d, its decisions say %d", seed, c.name, rule, got, own[rule])
			}
		}
	}

	// Table 5 reads the tally.
	e := &fcatch.EvalRun{Order: []string{w.Name()}, Results: map[string]*fcatch.Result{w.Name(): res}}
	want := fcatch.Table5Row{
		Workload:    w.Name(),
		LoopTimeout: reg.Of(fcatch.RuleLoopTimeout),
		WaitTimeout: reg.Of(fcatch.RuleWaitTimeout),
		Dependence:  rec.Of(fcatch.RuleSanityCheck) + rec.Of(fcatch.RuleReset),
		Impact:      rec.Of(fcatch.RuleImpact),
	}
	if got := e.Table5(); len(got) != 1 || got[0] != want {
		t.Errorf("seed %d: Table 5 = %+v, want %+v", seed, got, want)
	}

	// The per-rule metrics counters are the tally.
	snap := opts.Metrics.Snapshot()
	for _, rule := range fcatch.PruneRuleNames() {
		if got, want := snap.Counters["detect/rule/"+rule], int64(reg.Of(rule)+rec.Of(rule)); got != want {
			t.Errorf("seed %d: counter detect/rule/%s = %d, tally says %d", seed, rule, got, want)
		}
	}
}

// TestMetricsAndExplainAreObserveOnly pins the determinism contract: turning
// on metrics and explain changes no report, window, or compound finding.
func TestMetricsAndExplainAreObserveOnly(t *testing.T) {
	render := func(opts fcatch.Options) string {
		w := fcatch.MustWorkload("HB2")
		res, err := fcatch.Detect(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, r := range res.Reports {
			out += fmt.Sprintf("w%d %s\n", r.WindowID, r)
		}
		out += fcatch.RenderWindows(res) + fcatch.RenderCompound(res)
		return out
	}
	plain := render(fcatch.DefaultOptions())
	instrumented := fcatch.DefaultOptions()
	instrumented.Detect.Explain = true
	instrumented.Metrics = fcatch.NewMetrics()
	if got := render(instrumented); got != plain {
		t.Errorf("instrumented detection diverged from plain run:\n--- plain ---\n%s--- instrumented ---\n%s", plain, got)
	}
}
