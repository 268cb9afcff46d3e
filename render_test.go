package fcatch_test

import (
	"fmt"
	"slices"
	"strconv"
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
// (the scenarios the compound detection tests pin).
func detectComposite(t *testing.T, wl string) *fcatch.Result {
	t.Helper()
	w := fcatch.MustWorkload(wl)
	opts := fcatch.DefaultOptions()
	sc, err := fcatch.ParseScenario(compositeScenarios[wl])
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

// compositeWorkloads: MR1's composite has two crash windows; HB1's has
// crash-recovery reports and a drop window with no recovery node.
var compositeWorkloads = []string{"MR1", "HB1"}

// windowRows renders res's hazard-window table, checks its title and that
// it has one row per window, and returns the rows.
func windowRows(t *testing.T, res *fcatch.Result) []string {
	t.Helper()
	s := fcatch.RenderWindows(res)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if !strings.Contains(lines[0], "Hazard windows") {
		t.Errorf("window render missing title:\n%s", s)
	}
	rows := lines[3:] // title, header, separator
	if len(rows) != len(res.Windows) {
		t.Fatalf("window render has %d rows, want one per window (%d):\n%s", len(rows), len(res.Windows), s)
	}
	return rows
}

// TestRenderWindows: the hazard-window table is titled, has one row per
// window, and each row names its window, kind, victim, open and close steps
// and recovery node (a dash when there is none).
func TestRenderWindows(t *testing.T) {
	for _, wl := range compositeWorkloads {
		t.Run(wl, func(t *testing.T) {
			res := detectComposite(t, wl)
			for i, row := range windowRows(t, res) {
				w := &res.Windows[i]
				rec := w.Incarnation
				if rec == "" {
					rec = "-" // an empty recovery shows as a dash
				}
				cells := strings.Fields(row)
				want := []string{fmt.Sprintf("w%d", w.ID), w.Kind().String(), w.Victim,
					fmt.Sprint(w.Step), fmt.Sprint(w.CloseStep), rec}
				if len(cells) != len(want)+1 || !slices.Equal(cells[:len(want)], want) {
					t.Errorf("row %d = %q, want cells %q then the report count", i, row, want)
				}
			}
		})
	}
}

// TestWindowsTableRows: the Reports column of the hazard-window table, its
// last cell, accounts for every crash-recovery report.
func TestWindowsTableRows(t *testing.T) {
	for _, wl := range compositeWorkloads {
		t.Run(wl, func(t *testing.T) {
			res := detectComposite(t, wl)
			recovery := 0
			for _, r := range res.Reports {
				if r.Type == fcatch.CrashRecoveryBug {
					recovery++
				}
			}
			total := 0
			for i, row := range windowRows(t, res) {
				cells := strings.Fields(row)
				n, err := strconv.Atoi(cells[len(cells)-1])
				if err != nil {
					t.Fatalf("row %d report count %q: %v", i, cells[len(cells)-1], err)
				}
				total += n
			}
			if total != recovery {
				t.Errorf("window rows account for %d reports, want the %d crash-recovery reports", total, recovery)
			}
		})
	}
}

func TestRenderCompound(t *testing.T) {
	res := detectComposite(t, "MR1")
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
