package fcatch_test

import (
	"fmt"
	"strings"
	"testing"

	"fcatch"
	"fcatch/internal/detect"
)

func TestRenderTable1Contents(t *testing.T) {
	s := fcatch.RenderTable1()
	for _, want := range []string{"CA", "1.1.12", "HB", "0.96.0", "0.90.1", "MR", "0.23.1", "2.1.1", "ZK", "3.4.5", "AntiEntropy", "WordCount"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 render missing %q", want)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 9 { // title + header + separator + 6 rows
		t.Errorf("Table 1 has %d lines, want 9", len(lines))
	}
}

func TestRenderRandom(t *testing.T) {
	res := &fcatch.CampaignResult{
		Workload: "XX", Runs: 100, FailureRuns: 3,
		Failures: map[string]int{"hang:a/main": 2, "fatal:boom": 1},
	}
	const want = `Random crash injection (Section 8.3).
  XX    : 3/100 runs failed, 2 distinct failure(s)
        2x hang:a/main
        1x fatal:boom
`
	if got := fcatch.RenderRandom([]*fcatch.CampaignResult{res}); got != want {
		t.Errorf("random render:\n got: %q\nwant: %q", got, want)
	}
}

func TestRenderSensitivity(t *testing.T) {
	s := fcatch.RenderSensitivity(&fcatch.SensitivityResult{BugsByPhase: map[string][]string{
		"begin": {"A", "B"}, "middle": {"A", "B"}, "end": {"A"},
	}})
	if !strings.Contains(s, "begin  ( 2): A, B") || !strings.Contains(s, "end    ( 1): A") {
		t.Fatalf("sensitivity render:\n%s", s)
	}
}

func TestRenderPruningAblation(t *testing.T) {
	s := fcatch.RenderPruningAblation([]fcatch.PruningAblationRow{
		{Workload: "W1", Full: 2, NoTimeout: 3, NoDependence: 2, NoImpact: 5, NoneAtAll: 8},
		{Workload: "W2", Full: 1, NoTimeout: 1, NoDependence: 2, NoImpact: 3, NoneAtAll: 4},
	})
	for _, want := range []string{"W1", "W2", "Total", "4.0x"} {
		if !strings.Contains(s, want) {
			t.Errorf("pruning ablation render missing %q in:\n%s", want, s)
		}
	}
}

// composite observation for the window/compound rendering tests: two fault
// firings, so the result has multiple hazard windows and a compound finding
// (the same MR1 scenario the compound detection tests pin).
func detectComposite(t *testing.T) *fcatch.Result {
	t.Helper()
	w := fcatch.MustWorkload("MR1")
	opts := fcatch.DefaultOptions()
	sc, err := fcatch.ParseScenario(compositeScenarios["MR1"])
	if err != nil {
		t.Fatal(err)
	}
	opts.Scenario = sc
	res, err := fcatch.Detect(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWindowsTableRows(t *testing.T) {
	res := detectComposite(t)
	rows := fcatch.WindowsTable(res)
	if len(rows) != len(res.Windows) {
		t.Fatalf("WindowsTable has %d rows, want one per window (%d)", len(rows), len(res.Windows))
	}
	recovery := 0
	for _, r := range res.Reports {
		if r.Type == fcatch.CrashRecoveryBug {
			recovery++
		}
	}
	total := 0
	for i, row := range rows {
		w := &res.Windows[i]
		if want := fmt.Sprintf("w%d", w.ID); row.Window != want {
			t.Errorf("row %d window = %q, want %q", i, row.Window, want)
		}
		if row.Victim != w.Victim || row.Open != w.OpenStep || row.Close != w.CloseStep {
			t.Errorf("row %d anchors %+v diverge from window %+v", i, row, w)
		}
		if row.Kind != w.Kind.String() || row.Recovery != w.Incarnation {
			t.Errorf("row %d kind/recovery %q/%q diverge from window %q/%q",
				i, row.Kind, row.Recovery, w.Kind.String(), w.Incarnation)
		}
		total += row.Reports
	}
	if total != recovery {
		t.Errorf("window rows account for %d reports, want the %d crash-recovery reports", total, recovery)
	}
}

func TestRenderWindows(t *testing.T) {
	res := detectComposite(t)
	s := fcatch.RenderWindows(res)
	if !strings.Contains(s, "Hazard windows") {
		t.Errorf("window render missing title:\n%s", s)
	}
	for _, row := range fcatch.WindowsTable(res) {
		for _, want := range []string{row.Window, row.Kind, row.Victim} {
			if !strings.Contains(s, want) {
				t.Errorf("window render missing %q in:\n%s", want, s)
			}
		}
		if row.Recovery == "" && !strings.Contains(s, "-") {
			t.Errorf("window render should show %q's empty recovery as a dash:\n%s", row.Window, s)
		}
	}
}

func TestRenderCompound(t *testing.T) {
	res := detectComposite(t)
	if len(res.Compound) == 0 {
		t.Fatal("composite MR1 observation produced no compound findings")
	}
	s := fcatch.RenderCompound(res)
	if got := strings.Count(s, "compound:"); got != len(res.Compound) {
		t.Errorf("compound render has %d entries, want %d", got, len(res.Compound))
	}
	for _, c := range res.Compound {
		scenario := fcatch.FormatScenario(fcatch.CompoundScenario(c))
		if !strings.Contains(s, fmt.Sprintf("%q", scenario)) {
			t.Errorf("compound render missing replay scenario %q in:\n%s", scenario, s)
		}
	}
	// An ordinary single-fault result renders nothing — the section must not
	// print an empty header.
	plain, err := fcatch.Detect(fcatch.MustWorkload("TOY"), fcatch.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Compound) == 0 {
		if out := fcatch.RenderCompound(plain); out != "" {
			t.Errorf("compound render of a compound-free result = %q, want empty", out)
		}
	}
}

func TestRenderExplain(t *testing.T) {
	opts := fcatch.DefaultOptions()
	opts.Detect.Explain = true
	res, err := fcatch.Detect(fcatch.MustWorkload("MR1"), opts)
	if err != nil {
		t.Fatal(err)
	}
	ds := fcatch.ExplainDecisions(res)
	kt := detect.KillTable(ds)
	s := fcatch.RenderExplain(res)
	if want := fmt.Sprintf("%d candidate(s), %d kept, %d killed",
		len(ds), kt[fcatch.RuleKept], len(ds)-kt[fcatch.RuleKept]); !strings.Contains(s, want) {
		t.Errorf("explain render missing summary %q in:\n%s", want, s)
	}
	for _, rule := range fcatch.PruneRuleNames() {
		if !strings.Contains(s, rule) {
			t.Errorf("explain render missing rule row %q in:\n%s", rule, s)
		}
	}
	if got := strings.Count(s, "\n  "); got < len(ds) {
		t.Errorf("explain decision trail has %d lines, want %d (one per candidate)", got, len(ds))
	}
}

func TestRenderAblationMarksFailures(t *testing.T) {
	s := fcatch.RenderAblation([]fcatch.AblationRow{
		{Workload: "CA1&2", SelectiveSteps: 10, ExhaustiveSteps: 40, SelectiveOK: true, ExhaustiveOK: false, ExhaustiveNote: "conviction"},
		{Workload: "ZK", SelectiveSteps: 5, ExhaustiveSteps: 12, SelectiveOK: true, ExhaustiveOK: true},
	})
	if !strings.Contains(s, "FAIL: conviction") || !strings.Contains(s, "ok") {
		t.Fatalf("ablation render:\n%s", s)
	}
}
