package fcatch

import (
	"fmt"
	"strings"
	"time"
)

// renderTable aligns rows of cells into a plain-text table.
func renderTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

// RenderTable1 renders the benchmark suite.
func RenderTable1() string {
	var rows [][]string
	for _, r := range Table1() {
		rows = append(rows, []string{r.App, r.Version, r.Workload, r.Bench, r.Bugs})
	}
	return "Table 1. FCatch Benchmarks.\n" +
		renderTable([]string{"App.", "Version", "Workload", "Bench.", "Bugs"}, rows)
}

// RenderTable2 renders the confirmed-bug inventory.
func (e *EvalRun) RenderTable2() string {
	var rows [][]string
	section := func(cat BugCategory, typ string, want string) {
		rows = append(rows, []string{want, "", "", "", ""})
		for _, r := range e.Table2() {
			s := Spec(r.ID)
			if r.Category != cat || s.Type.String() != typ {
				continue
			}
			conf := "yes"
			if !r.Confirmed {
				conf = "NO"
			}
			rows = append(rows, []string{r.ID, r.Ops, r.Res, r.Symptom, conf})
		}
	}
	section(Benchmark, "crash-regular", "Benchmark Crash-Regular TOF bugs")
	section(Benchmark, "crash-recovery", "Benchmark Crash-Recovery TOF bugs")
	section(NonBenchmark, "crash-regular", "Non-Benchmark Crash-Regular TOF bugs")
	section(NonBenchmark, "crash-recovery", "Non-Benchmark Crash-Recovery TOF bugs")
	return "Table 2. TOF bugs found by FCatch (confirmed by triggering).\n" +
		renderTable([]string{"ID", "Operations", "Res.", "Symptom", "Confirmed"}, rows)
}

// RenderTable3 renders per-workload detection results.
func (e *EvalRun) RenderTable3() string {
	var rows [][]string
	add := func(r Table3Row) {
		rows = append(rows, []string{
			r.Workload,
			fmt.Sprint(r.RegOld), fmt.Sprint(r.RegNew), fmt.Sprint(r.RegExp), fmt.Sprint(r.RegFalse),
			fmt.Sprint(r.RecOld), fmt.Sprint(r.RecNew), fmt.Sprint(r.RecExp), fmt.Sprint(r.RecFalse),
		})
	}
	for _, r := range e.Table3() {
		add(r)
	}
	add(e.Table3Totals())
	return "Table 3. FCatch bug detection results (Old/New = true bugs; Exp. = handled/expected; False = benign).\n" +
		renderTable([]string{"", "CR-Old", "CR-New", "CR-Exp.", "CR-False", "Rec-Old", "Rec-New", "Rec-Exp.", "Rec-False"}, rows)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// RenderTable4 renders the performance breakdown.
func (e *EvalRun) RenderTable4() string {
	var rows [][]string
	for _, r := range e.Table4() {
		t := r.Timings
		rows = append(rows, []string{
			r.Workload,
			ms(t.BaselineFaultFree), ms(t.BaselineFaulty),
			ms(t.TracingFaultFree), ms(t.TracingFaulty),
			ms(t.AnalysisRegular), ms(t.AnalysisRecovery),
			ms(t.Overall()), fmt.Sprintf("%.1fX", t.Slowdown()),
		})
	}
	return "Table 4. FCatch performance (wall-clock at simulator scale; Slowdown = (Tracing+Analysis)/Baseline-NF).\n" +
		renderTable([]string{"", "Base-NF", "Base-F", "Trace-NF", "Trace-F", "Reg", "Rec", "Overall", "Slowdown"}, rows)
}

// RenderTable5 renders pruning-analysis counts.
func (e *EvalRun) RenderTable5() string {
	var rows [][]string
	for _, r := range e.Table5() {
		rows = append(rows, []string{
			r.Workload, fmt.Sprint(r.LoopTimeout), fmt.Sprint(r.WaitTimeout),
			fmt.Sprint(r.Dependence), fmt.Sprint(r.Impact),
		})
	}
	return "Table 5. # false positives pruned by each analysis.\n" +
		renderTable([]string{"", "Loop TimeOut", "Wait TimeOut", "Dependence", "Impact"}, rows)
}

// RenderWindows renders a detection result's hazard-window breakdown: one
// row per fault firing of the observed scenario, with the crash-recovery
// reports anchored in each window.
func RenderWindows(res *Result) string {
	var rows [][]string
	for _, r := range WindowsTable(res) {
		rec := r.Recovery
		if rec == "" {
			rec = "-"
		}
		rows = append(rows, []string{
			r.Window, r.Kind, r.Victim,
			fmt.Sprint(r.Open), fmt.Sprint(r.Close), rec, fmt.Sprint(r.Reports),
		})
	}
	return "Hazard windows (one per fault firing of the observed scenario).\n" +
		renderTable([]string{"Window", "Kind", "Victim", "Open", "Close", "Recovery", "Reports"}, rows)
}

// RenderCompound renders a result's compound findings, each with the exact
// -scenario string (the FormatScenario rendering of its two window anchors)
// that replays it.
func RenderCompound(res *Result) string {
	var b strings.Builder
	for _, c := range res.Compound {
		fmt.Fprintf(&b, "compound: %s\n  scenario: %q\n", c, FormatScenario(CompoundScenario(c)))
	}
	return b.String()
}

// RenderExplain renders a detection result's pruning attribution: the
// per-rule kill table (which §4 analysis discarded how many candidates) and
// the per-candidate decision trail. The pass must have run with
// Options.Detect.Explain; per the explain contract, the rule counts always
// sum to the candidate count.
func RenderExplain(res *Result) string {
	ds := ExplainDecisions(res)
	kt := KillTable(ds)
	var b strings.Builder
	fmt.Fprintf(&b, "Pruning attribution for %s: %d candidate(s), %d kept, %d killed.\n",
		res.Workload, len(ds), kt[RuleKept], len(ds)-kt[RuleKept])
	var rows [][]string
	for _, r := range PruneRuleNames() {
		rows = append(rows, []string{r, fmt.Sprint(kt[r])})
	}
	b.WriteString(renderTable([]string{"Rule", "Candidates"}, rows))
	if len(ds) > 0 {
		b.WriteString("Decision trail:\n")
		for _, d := range ds {
			fmt.Fprintf(&b, "  %-12s [%s w%d] %s\n", d.Rule, d.Detector, d.Window, d.Candidate)
		}
	}
	return b.String()
}

// RenderSensitivity renders the Section 8.1.2 study.
func RenderSensitivity(s *SensitivityResult) string {
	var b strings.Builder
	b.WriteString("Crash-point sensitivity (Section 8.1.2): catalogued bugs reported per fault phase.\n")
	for _, phase := range []string{"begin", "middle", "end"} {
		ids := s.BugsByPhase[phase]
		fmt.Fprintf(&b, "  %-6s (%2d): %s\n", phase, len(ids), strings.Join(ids, ", "))
	}
	return b.String()
}

// RenderAblation renders the Section 8.2 exhaustive-tracing ablation.
func RenderAblation(rows []AblationRow) string {
	var out [][]string
	for _, r := range rows {
		sel, exh := "ok", "ok"
		if !r.SelectiveOK {
			sel = "FAIL"
		}
		if !r.ExhaustiveOK {
			exh = "FAIL: " + r.ExhaustiveNote
		}
		out = append(out, []string{
			r.Workload, fmt.Sprint(r.SelectiveSteps), fmt.Sprint(r.ExhaustiveSteps),
			ms(r.SelectiveTime), ms(r.ExhaustiveTime), sel, exh,
		})
	}
	return "Exhaustive-tracing ablation (Section 8.2): tracing every heap access.\n" +
		renderTable([]string{"", "Sel-steps", "Exh-steps", "Sel-time", "Exh-time", "Selective", "Exhaustive"}, out)
}

// RenderRandom renders Section 8.3 random-injection campaigns (Campaign
// with StrategyRandom), one per workload.
func RenderRandom(results []*CampaignResult) string {
	var b strings.Builder
	b.WriteString("Random crash injection (Section 8.3).\n")
	for _, r := range results {
		fmt.Fprintf(&b, "  %-6s: %d/%d runs failed, %d distinct failure(s)\n",
			r.Workload, r.FailureRuns, r.Runs, r.UniqueFailures())
		for _, sig := range r.Signatures() {
			fmt.Fprintf(&b, "      %3dx %s\n", r.Failures[sig], sig)
		}
	}
	return b.String()
}

// RenderTriggerMatrix renders the Section 8.4 fault-type matrix.
func (e *EvalRun) RenderTriggerMatrix() string {
	var rows [][]string
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "-"
	}
	for _, r := range e.TriggerMatrix() {
		rows = append(rows, []string{r.Bug, yn(r.NodeCrash), yn(r.KernelDrop), yn(r.AppDrop)})
	}
	return "Fault types that trigger each confirmed bug (Section 8.4).\n" +
		renderTable([]string{"Bug", ActionNodeCrash, ActionKernelDrop, ActionAppDrop}, rows)
}
