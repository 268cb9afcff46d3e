package fcatch_test

import (
	"strings"
	"testing"

	"fcatch"
	"fcatch/internal/detect"
)

// evalOnce caches the full evaluation across tests in this package (it runs
// detection + triggering on all six workloads).
var evalCache *fcatch.EvalRun

func eval(t *testing.T) *fcatch.EvalRun {
	t.Helper()
	if evalCache == nil {
		e, err := fcatch.RunEvaluation(fcatch.DefaultOptions())
		if err != nil {
			t.Fatalf("RunEvaluation: %v", err)
		}
		evalCache = e
	}
	return evalCache
}

func TestWorkloadRegistry(t *testing.T) {
	ws := fcatch.Workloads()
	if len(ws) != 6 {
		t.Fatalf("workloads = %d, want 6 (Table 1)", len(ws))
	}
	names := map[string]bool{}
	for _, w := range ws {
		names[w.Name()] = true
		got, err := fcatch.ByName(w.Name())
		if err != nil || got.Name() != w.Name() {
			t.Errorf("ByName(%s) = %v, %v", w.Name(), got, err)
		}
	}
	for _, want := range []string{"CA1&2", "HB1", "HB2", "MR1", "MR2", "ZK"} {
		if !names[want] {
			t.Errorf("workload %s missing", want)
		}
	}
	if _, err := fcatch.ByName("nope"); err == nil {
		t.Error("ByName should reject unknown names")
	}
	if w := fcatch.MustWorkload("TOY"); w.Name() != "TOY" {
		t.Error("tutorial workload missing")
	}
}

func TestCatalogIsComplete(t *testing.T) {
	if len(fcatch.Catalog) != 16 {
		t.Fatalf("catalog has %d bugs, want 16 (Table 2)", len(fcatch.Catalog))
	}
	bench, non := 0, 0
	for _, s := range fcatch.Catalog {
		if s.Category == fcatch.Benchmark {
			bench++
		} else {
			non++
		}
		if fcatch.Spec(s.ID) == nil {
			t.Errorf("Spec(%s) lookup failed", s.ID)
		}
	}
	// 7 benchmark bugs, with MR2 counted twice (two ways) = 8 rows.
	if bench != 8 || non != 8 {
		t.Fatalf("catalog split = %d benchmark + %d new, want 8 + 8", bench, non)
	}
}

func TestAllSixteenBugsConfirmed(t *testing.T) {
	e := eval(t)
	for _, row := range e.Table2() {
		if !row.Confirmed {
			t.Errorf("bug %s was not confirmed by triggering", row.ID)
		}
	}
}

// TestTable3MatchesPaperExactRows pins the rows that reproduce the paper
// digit-for-digit; rows with known deltas are checked in shape.
func TestTable3MatchesPaper(t *testing.T) {
	e := eval(t)
	rows := map[string]fcatch.Table3Row{}
	for _, r := range e.Table3() {
		rows[r.Workload] = r
	}

	type want struct {
		regOld, regNew, regExp, regFalse int
		recOld, recNew, recExp           int
	}
	paper := map[string]want{
		"CA1&2": {2, 1, 0, 0, 0, 0, 0},
		"HB1":   {1, 0, 0, 3, 0, 0, 4},
		"HB2":   {0, 2, 2, 0, 1, 2, 0},
		"MR1":   {0, 1, 0, 0, 1, 1, 0},
		"MR2":   {0, 1, 0, 0, 2, 1, 0},
		"ZK":    {0, 0, 0, 0, 1, 0, 0},
	}
	for wl, w := range paper {
		r, ok := rows[wl]
		if !ok {
			t.Fatalf("no row for %s", wl)
		}
		got := want{r.RegOld, r.RegNew, r.RegExp, r.RegFalse, r.RecOld, r.RecNew, r.RecExp}
		if got != w {
			t.Errorf("%s row = %+v, want %+v (paper Table 3)", wl, got, w)
		}
	}

	// Totals (the benign column runs slightly higher than the paper's; the
	// true-bug and Exp columns must be exact).
	total := e.Table3Totals()
	if total.RegOld != 3 || total.RegNew != 4 || total.RegExp != 2 || total.RegFalse != 3 {
		t.Errorf("crash-regular totals = %+v, want 3/4/2/3", total)
	}
	if total.RecOld != 5 || total.RecNew != 4 || total.RecExp != 4 {
		t.Errorf("crash-recovery totals = %+v, want 5/4/4", total)
	}
	if total.RecFalse < 6 || total.RecFalse > 12 {
		t.Errorf("crash-recovery benign FPs = %d, want near the paper's 6", total.RecFalse)
	}
}

func TestTable5TimeoutColumnsMatchPaper(t *testing.T) {
	e := eval(t)
	paper := map[string][2]int{ // {LoopTimeout, WaitTimeout}
		"CA1&2": {0, 1}, "HB1": {3, 7}, "HB2": {0, 2},
		"MR1": {0, 1}, "MR2": {0, 2}, "ZK": {2, 2},
	}
	for _, r := range e.Table5() {
		w := paper[r.Workload]
		if r.LoopTimeout != w[0] || r.WaitTimeout != w[1] {
			t.Errorf("%s timeouts = %d/%d, want %d/%d", r.Workload, r.LoopTimeout, r.WaitTimeout, w[0], w[1])
		}
		// Dependence and impact analyses must dominate (the paper's point:
		// without them FPs grow ~5x / ~40x).
		if r.Dependence+r.Impact <= r.LoopTimeout+r.WaitTimeout {
			t.Errorf("%s: dependence+impact (%d) should dominate timeout pruning (%d)",
				r.Workload, r.Dependence+r.Impact, r.LoopTimeout+r.WaitTimeout)
		}
	}
}

func TestTriggerMatrixMatchesSection84(t *testing.T) {
	e := eval(t)
	matrix := map[string]fcatch.TriggerMatrixRow{}
	for _, r := range e.TriggerMatrix() {
		matrix[r.Bug] = r
	}
	// HB1 triggers only by node crash (message drops are resent / go
	// through ZooKeeper).
	if r := matrix["HB1"]; !r.NodeCrash || r.KernelDrop || r.AppDrop {
		t.Errorf("HB1 matrix = %+v, want node-crash only", r)
	}
	// Two of the three CA crash-regular bugs trigger by drops, not crashes.
	for _, id := range []string{"CA1", "CA2"} {
		if r := matrix[id]; r.NodeCrash || !r.KernelDrop {
			t.Errorf("%s matrix = %+v, want drop-only", id, r)
		}
	}
	if r := matrix["CA3"]; !r.NodeCrash {
		t.Errorf("CA3 matrix = %+v, want node crash to work too", r)
	}
	// HB3/HB4 trigger by both kinds.
	for _, id := range []string{"HB3", "HB4"} {
		if r := matrix[id]; !r.NodeCrash || !r.KernelDrop {
			t.Errorf("%s matrix = %+v, want both crash and kernel drop", id, r)
		}
	}
	// MR3 is always triggerable by dropping the RPC reply; whether a callee
	// crash also hangs the caller depends on which call instance the report
	// picked (the platform may relaunch the callee).
	if r := matrix["MR3"]; !r.KernelDrop {
		t.Errorf("MR3 matrix = %+v, want kernel-drop", r)
	}
}

func TestTable4PerformanceShape(t *testing.T) {
	opts := fcatch.DefaultOptions()
	opts.MeasureBaseline = true
	res, err := fcatch.Detect(fcatch.MustWorkload("MR1"), opts)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Observation.Timings
	if tm.BaselineFaultFree <= 0 || tm.TracingFaultFree <= 0 {
		t.Fatalf("timings not measured: %+v", tm)
	}
	if tm.Overall() <= tm.BaselineFaultFree {
		t.Errorf("tracing+analysis (%v) should cost more than one baseline run (%v)",
			tm.Overall(), tm.BaselineFaultFree)
	}
	if tm.Slowdown() <= 1 {
		t.Errorf("slowdown = %.2f, want > 1", tm.Slowdown())
	}
}

func TestSensitivityMatchesSection812(t *testing.T) {
	s, err := fcatch.Sensitivity(1)
	if err != nil {
		t.Fatal(err)
	}
	begin := s.BugsByPhase["begin"]
	end := s.BugsByPhase["end"]
	if len(begin) != 16 {
		t.Fatalf("begin phase found %d bugs, want all 16: %v", len(begin), begin)
	}
	if len(end) >= len(begin) {
		t.Fatalf("end phase should miss reports (found %d)", len(end))
	}
	// Everything the end phase finds, the begin phase finds too.
	set := map[string]bool{}
	for _, id := range begin {
		set[id] = true
	}
	for _, id := range end {
		if !set[id] {
			t.Errorf("end phase found %s that begin missed", id)
		}
	}
}

func TestAblationMatchesSection82(t *testing.T) {
	rows := fcatch.AblationTraceAll(1)
	for _, r := range rows {
		if !r.SelectiveOK {
			t.Errorf("%s: selective tracing must be survivable", r.Workload)
		}
		if r.ExhaustiveSteps <= r.SelectiveSteps {
			t.Errorf("%s: exhaustive tracing should inflate the run (%d vs %d steps)",
				r.Workload, r.ExhaustiveSteps, r.SelectiveSteps)
		}
		if r.Workload == "CA1&2" && r.ExhaustiveOK {
			t.Error("CA must fail under exhaustive tracing (gossip neighbours declared dead)")
		}
	}
}

func TestRendersAreNonEmpty(t *testing.T) {
	e := eval(t)
	for name, s := range map[string]string{
		"table1": fcatch.RenderTable1(),
		"table2": e.RenderTable2(),
		"table3": e.RenderTable3(),
		"table4": e.RenderTable4(),
		"table5": e.RenderTable5(),
		"matrix": e.RenderTriggerMatrix(),
	} {
		if len(strings.Split(s, "\n")) < 4 {
			t.Errorf("render %s is suspiciously short:\n%s", name, s)
		}
	}
}

func TestMatchSpecRequiresTrueBug(t *testing.T) {
	e := eval(t)
	for wl, outs := range e.Outcomes {
		for _, out := range outs {
			spec := fcatch.MatchSpec(wl, out)
			if out.Class != fcatch.TrueBug && spec != nil {
				t.Errorf("%s: non-true-bug matched catalog entry %s", wl, spec.ID)
			}
			if out.Class == fcatch.TrueBug && spec == nil {
				t.Errorf("%s: confirmed true bug has no catalog entry: %s", wl, out.Report)
			}
		}
	}
}

func TestReportsCarryTriggerableCoordinates(t *testing.T) {
	e := eval(t)
	for wl, res := range e.Results {
		for _, r := range res.Reports {
			if r.W.Site == "" || r.R.Site == "" {
				t.Errorf("%s: report without sites: %s", wl, r)
			}
			if r.W.Occurrence < 1 {
				t.Errorf("%s: W occurrence %d", wl, r.W.Occurrence)
			}
			if r.Type == detect.CrashRegular && r.WPrime == nil {
				t.Errorf("%s: crash-regular report without W': %s", wl, r)
			}
			if r.Type == detect.CrashRecovery && r.CrashTargetRole == "" {
				t.Errorf("%s: crash-recovery report without a crash target: %s", wl, r)
			}
		}
	}
}

// TestTriggerDetailNamesEachSymptomOnce: a trigger outcome's Detail names
// each symptom once. The checker only judges runs that ended cleanly, so a
// "check:" clause appears only when the checker's complaint is the failure.
func TestTriggerDetailNamesEachSymptomOnce(t *testing.T) {
	e := eval(t)
	n := 0
	for _, name := range e.Order {
		for _, o := range e.Outcomes[name] {
			n++
			kind := strings.TrimPrefix(o.FailureKind, "expected-")
			if strings.Contains(o.Detail, "check:") && kind != "check" {
				t.Errorf("%s %s: %s outcome's detail repeats a checker clause: %s", name, o.Report.ResClass, o.FailureKind, o.Detail)
			}
		}
	}
	if n == 0 {
		t.Fatal("no trigger outcomes")
	}
}
