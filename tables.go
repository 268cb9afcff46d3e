package fcatch

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/inject"
	"fcatch/internal/parallel"
	"fcatch/internal/sim"
)

// EvalRun is one full evaluation pass: detection and triggering over every
// workload. It is the data source for Tables 2, 3, 4 and 5.
type EvalRun struct {
	Opts     Options
	Order    []string
	Results  map[string]*Result
	Outcomes map[string][]*TriggerOutcome
}

// RunEvaluation reproduces the paper's end-to-end evaluation: for each of
// the six workloads, observe the correct-run pair, detect, and trigger every
// report. Pass MeasureBaseline to also collect the Table 4 timings.
//
// The per-workload passes fan out across opts.Parallelism workers (0 =
// GOMAXPROCS); each pass runs in its own simulated cluster, and results are
// collected in Table 1 order, so every table and report list is byte-
// identical to the sequential run.
func RunEvaluation(opts Options) (*EvalRun, error) {
	ws := Workloads()
	type pass struct {
		res  *Result
		outs []*TriggerOutcome
	}
	passes, err := parallel.MapErr(context.Background(), opts.Parallelism, len(ws), func(i int) (pass, error) {
		w := ws[i]
		res, err := Detect(w, opts)
		if err != nil {
			return pass{}, fmt.Errorf("fcatch: %s: %w", w.Name(), err)
		}
		return pass{res: res, outs: Trigger(w, res)}, nil
	})
	if err != nil {
		return nil, err
	}
	e := &EvalRun{
		Opts:     opts,
		Results:  make(map[string]*Result),
		Outcomes: make(map[string][]*TriggerOutcome),
	}
	for i, w := range ws {
		e.Order = append(e.Order, w.Name())
		e.Results[w.Name()] = passes[i].res
		e.Outcomes[w.Name()] = passes[i].outs
	}
	return e, nil
}

// --- Table 1: the benchmark suite. ---

// Table1Row is one benchmark workload (Table 1 of the paper).
type Table1Row struct {
	App      string
	Version  string
	Workload string
	Bench    string
	Bugs     string
}

// Table1 lists the six workloads.
func Table1() []Table1Row {
	return []Table1Row{
		{"CA", "1.1.12", "Startup + AntiEntropy (AE)", "CA1&2", "CA1, CA2"},
		{"HB", "0.96.0", "Startup + HMasterRestart", "HB1", "HB1"},
		{"HB", "0.90.1", "Startup", "HB2", "HB2"},
		{"MR", "0.23.1", "Startup + WordCount(WC)", "MR1", "MR1"},
		{"MR", "2.1.1", "Startup + WordCount(WC)", "MR2", "MR2"},
		{"ZK", "3.4.5", "Startup", "ZK", "ZK"},
	}
}

// --- Table 2: the TOF bugs found. ---

// Table2Row is one confirmed bug (Table 2 of the paper).
type Table2Row struct {
	ID        string
	Ops       string
	Res       string
	Symptom   string
	Category  BugCategory
	Confirmed bool // triggering produced a real failure
}

// Table2 lists every catalogued bug with whether this evaluation confirmed
// it (bugs reported by several workloads — MR3 — appear once).
func (e *EvalRun) Table2() []Table2Row {
	confirmed := map[string]bool{}
	for wl, outs := range e.Outcomes {
		for _, out := range outs {
			if s := MatchSpec(wl, out); s != nil {
				confirmed[s.ID] = true
			}
		}
	}
	rows := make([]Table2Row, 0, len(Catalog))
	for _, s := range Catalog {
		rows = append(rows, Table2Row{
			ID: s.ID, Ops: s.Ops, Res: s.ResKind, Symptom: s.Symptom,
			Category: s.Category, Confirmed: confirmed[s.ID],
		})
	}
	return rows
}

// --- Table 3: detection results per workload. ---

// Table3Row is one workload's report classification counts (Table 3).
type Table3Row struct {
	Workload string
	// Crash-regular: benchmark bugs, new bugs, exception-FPs, benign-FPs.
	RegOld, RegNew, RegExp, RegFalse int
	// Crash-recovery, same columns.
	RecOld, RecNew, RecExp, RecFalse int
}

// Total sums the row.
func (r Table3Row) Total() int {
	return r.RegOld + r.RegNew + r.RegExp + r.RegFalse + r.RecOld + r.RecNew + r.RecExp + r.RecFalse
}

// count tallies one trigger outcome of workload wl into its Table 3 cell.
func (r *Table3Row) count(wl string, out *TriggerOutcome) {
	reg := out.Report.Type == detect.CrashRegular
	switch out.Class {
	case inject.TrueBug:
		spec := MatchSpec(wl, out)
		old := spec != nil && spec.Category == Benchmark
		switch {
		case reg && old:
			r.RegOld++
		case reg:
			r.RegNew++
		case old:
			r.RecOld++
		default:
			r.RecNew++
		}
	case inject.Expected:
		if reg {
			r.RegExp++
		} else {
			r.RecExp++
		}
	default:
		if reg {
			r.RegFalse++
		} else {
			r.RecFalse++
		}
	}
}

// Table3 classifies every report by its trigger verdict and catalog match.
func (e *EvalRun) Table3() []Table3Row {
	var rows []Table3Row
	for _, wl := range e.Order {
		row := Table3Row{Workload: wl}
		for _, out := range e.Outcomes[wl] {
			row.count(wl, out)
		}
		rows = append(rows, row)
	}
	return rows
}

// Table3Totals sums the rows, counting each true bug once even when several
// workloads report it (the paper's "*: same bug" footnote: MR3 appears in
// both MR rows but counts once in the total).
func (e *EvalRun) Table3Totals() Table3Row {
	t := Table3Row{Workload: "Total"}
	seen := map[string]bool{}
	for _, wl := range e.Order {
		for _, out := range e.Outcomes[wl] {
			if spec := MatchSpec(wl, out); spec != nil {
				if seen[spec.ID] {
					continue
				}
				seen[spec.ID] = true
			}
			t.count(wl, out)
		}
	}
	return t
}

// --- Table 4: performance. ---

// Table4Row is one workload's timing breakdown (Table 4). Durations are
// wall-clock for this reproduction's simulator-scale runs.
type Table4Row struct {
	Workload string
	Timings  core.Timings
}

// Table4 returns the timing rows (meaningful when the evaluation ran with
// MeasureBaseline).
func (e *EvalRun) Table4() []Table4Row {
	var rows []Table4Row
	for _, wl := range e.Order {
		rows = append(rows, Table4Row{Workload: wl, Timings: e.Results[wl].Observation.Timings})
	}
	return rows
}

// --- Table 5: pruning power. ---

// Table5Row is one workload's pruned-candidate counts (Table 5).
type Table5Row struct {
	Workload    string
	LoopTimeout int
	WaitTimeout int
	Dependence  int
	Impact      int
}

// Table5 reports what each fault-tolerance analysis eliminated.
func (e *EvalRun) Table5() []Table5Row {
	var rows []Table5Row
	for _, wl := range e.Order {
		res := e.Results[wl]
		rows = append(rows, Table5Row{
			Workload:    wl,
			LoopTimeout: res.Regular.Pruned.LoopTimeout,
			WaitTimeout: res.Regular.Pruned.WaitTimeout,
			Dependence:  res.Recovery.Pruned.Dependence,
			Impact:      res.Recovery.Pruned.Impact,
		})
	}
	return rows
}

// --- Hazard windows: the per-fault breakdown of one detection result. ---

// WindowRow is one hazard window of a detection result, with the number of
// crash-recovery reports anchored in it. Crash-regular reports are not
// counted: their hazard window is hypothetical (the fault that would expose
// them never fired in the observation).
type WindowRow struct {
	Window   string // "w0", "w1", ... (Report.WindowID anchors into these)
	Kind     string // "crash-recovery" or "drop-induced"
	Victim   string
	Open     int64
	Close    int64
	Recovery string // the victim's restarted incarnation, "" if none
	Reports  int
}

// WindowsTable breaks a detection result down per hazard window. A classic
// single-fault observation yields exactly one row; composite scenarios yield
// one row per fault that hit something.
func WindowsTable(res *Result) []WindowRow {
	counts := map[int]int{}
	for _, r := range res.Reports {
		if r.Type == detect.CrashRecovery {
			counts[r.WindowID]++
		}
	}
	rows := make([]WindowRow, 0, len(res.Windows))
	for i := range res.Windows {
		w := &res.Windows[i]
		rows = append(rows, WindowRow{
			Window: fmt.Sprintf("w%d", w.ID), Kind: w.Kind.String(),
			Victim: w.Victim, Open: w.OpenStep, Close: w.CloseStep,
			Recovery: w.Incarnation, Reports: counts[w.ID],
		})
	}
	return rows
}

// --- Section 8.1.2: crash-point sensitivity. ---

// SensitivityResult compares which catalogued bugs each crash phase's
// detection pass reports.
type SensitivityResult struct {
	// BugsByPhase maps phase name to the sorted catalogued bug IDs whose
	// signature appeared in that phase's reports.
	BugsByPhase map[string][]string
}

// Sensitivity runs detection with the observation crash at the beginning,
// middle and end of the execution (Section 8.1.2). All phase×workload
// detection passes fan out together; the per-phase bug sets are unions, so
// collection order cannot change them.
func Sensitivity(seed int64) (*SensitivityResult, error) {
	phases := []Phase{PhaseBegin, PhaseMiddle, PhaseEnd}
	ws := Workloads()
	ids, err := parallel.MapErr(context.Background(), 0, len(phases)*len(ws), func(i int) ([]string, error) {
		phase, w := phases[i/len(ws)], ws[i%len(ws)]
		opts := core.Options{Seed: seed, Phase: phase, Tracing: sim.TraceSelective}
		res, err := Detect(w, opts)
		if err != nil {
			return nil, fmt.Errorf("fcatch: sensitivity %s/%s: %w", w.Name(), phase, err)
		}
		var found []string
		for _, r := range res.Reports {
			if s := MatchReport(w.Name(), r); s != nil {
				found = append(found, s.ID)
			}
		}
		return found, nil
	})
	if err != nil {
		return nil, err
	}
	out := &SensitivityResult{BugsByPhase: map[string][]string{}}
	for pi, phase := range phases {
		found := map[string]bool{}
		for wi := range ws {
			for _, id := range ids[pi*len(ws)+wi] {
				found[id] = true
			}
		}
		sorted := make([]string, 0, len(found))
		for id := range found {
			sorted = append(sorted, id)
		}
		sort.Strings(sorted)
		out.BugsByPhase[phase.String()] = sorted
	}
	return out, nil
}

// --- Section 8.2: exhaustive-tracing ablation. ---

// AblationRow compares selective tracing against tracing every heap access
// for one workload's fault-free run.
type AblationRow struct {
	Workload        string
	SelectiveSteps  int64
	ExhaustiveSteps int64
	SelectiveTime   time.Duration
	ExhaustiveTime  time.Duration
	SelectiveOK     bool
	ExhaustiveOK    bool
	ExhaustiveNote  string
}

// AblationTraceAll runs every workload fault-free under both tracing modes,
// fanning the workloads across cores (rows come back in Table 1 order).
func AblationTraceAll(seed int64) []AblationRow {
	ws := Workloads()
	rows, _ := parallel.Map(context.Background(), 0, len(ws), func(i int) AblationRow {
		w := ws[i]
		row := AblationRow{Workload: w.Name()}
		for _, mode := range []sim.TracingMode{sim.TraceSelective, sim.TraceExhaustive} {
			_, out := core.Run(w, sim.Config{Seed: seed, Tracing: mode, TraceTickCost: core.TraceTickCost(mode)})
			if mode == sim.TraceSelective {
				row.SelectiveSteps = out.Steps
				row.SelectiveTime = out.Elapsed
				row.SelectiveOK = !out.Failed()
			} else {
				row.ExhaustiveSteps = out.Steps
				row.ExhaustiveTime = out.Elapsed
				row.ExhaustiveOK = !out.Failed()
				row.ExhaustiveNote = out.Detail()
			}
		}
		return row
	})
	return rows
}

// --- Section 8.4: the fault-type trigger matrix. ---

// TriggerMatrixRow records which fault kinds trigger one confirmed bug.
type TriggerMatrixRow struct {
	Bug        string
	NodeCrash  bool
	KernelDrop bool
	AppDrop    bool
}

// TriggerMatrix reproduces the Section 8.4 observations (crash-regular bugs
// are tried with all three fault types; crash-recovery bugs with crashes).
func (e *EvalRun) TriggerMatrix() []TriggerMatrixRow {
	seen := map[string]bool{}
	var rows []TriggerMatrixRow
	for _, wl := range e.Order {
		for _, out := range e.Outcomes[wl] {
			s := MatchSpec(wl, out)
			if s == nil || seen[s.ID] {
				continue
			}
			seen[s.ID] = true
			rows = append(rows, TriggerMatrixRow{
				Bug:        s.ID,
				NodeCrash:  out.ByAction[ActionNodeCrash],
				KernelDrop: out.ByAction[ActionKernelDrop],
				AppDrop:    out.ByAction[ActionAppDrop],
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Bug < rows[j].Bug })
	return rows
}
