// Package core orchestrates the FCatch pipeline of Figure 2: observe correct
// runs (a fault-free run plus, via deterministic replay standing in for VM
// checkpointing, a perfectly complementing correct faulty run), analyze the
// traces with the two detectors, and hand the reports to the triggering
// module.
package core

import (
	"fmt"
	"strings"
	"time"

	"fcatch/internal/detect"
	"fcatch/internal/hb"
	"fcatch/internal/obs"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// Workload is one benchmark configuration (a Table 1 row): a system plus the
// workload driven on it.
type Workload interface {
	// Name is the benchmark id ("CA1&2", "HB1", "MR2", ...).
	Name() string
	// System is the application name ("Cassandra", "HBase", ...).
	System() string
	// Configure builds the system inside the cluster: machines, processes,
	// storage substrates, workload driver threads.
	Configure(c *sim.Cluster)
	// Check judges the end state of a run (the correctness oracle): nil
	// means the run is correct. Run calls it only for a run that completed
	// with no fatal log and no uncaught exception — the outcome has already
	// judged those. It must accept runs that recovered from a tolerated
	// fault.
	Check(c *sim.Cluster) error
	// CrashTarget is the role observation runs and the random-injection
	// baseline crash.
	CrashTarget() string
	// RestartRoles maps roles to restart delays, the operator/recovery
	// behaviour after a crash.
	RestartRoles() map[string]int64
	// Tune sets app-specific cluster parameters (RPC timeout behaviour,
	// step budget).
	Tune(cfg *sim.Config)
	// ExpectedBehaviors are substrings of hang sites / exception kinds that
	// are *expected* reactions to a fault (e.g. HMaster legitimately waits
	// forever when every regionserver is gone). The triggering module
	// classifies matching failures as "Exp." rather than true bugs.
	ExpectedBehaviors() []string
}

// Phase selects where the observation crash lands (the Section 8.1.2
// sensitivity study).
type Phase int

const (
	// PhaseBegin crashes near the beginning of the execution (the default
	// setting of the paper's evaluation).
	PhaseBegin Phase = iota
	// PhaseMiddle crashes mid-execution.
	PhaseMiddle
	// PhaseEnd crashes near the end.
	PhaseEnd
)

func (p Phase) String() string {
	switch p {
	case PhaseBegin:
		return "begin"
	case PhaseMiddle:
		return "middle"
	default:
		return "end"
	}
}

func (p Phase) fraction() float64 {
	switch p {
	case PhaseBegin:
		return 0.12
	case PhaseMiddle:
		return 0.50
	default:
		return 0.88
	}
}

// Options parameterize one detection pass.
type Options struct {
	Seed    int64
	Phase   Phase
	Tracing sim.TracingMode // TraceSelective unless running the §8.2 ablation
	// MeasureBaseline additionally times untraced runs (Table 4), each
	// baseline the fastest of baselineRuns runs.
	MeasureBaseline bool
	// Scenario is the fault scenario observation runs inject. Empty means
	// the default provider: a one-event crash of the workload's
	// CrashTarget() at the phase-chosen step. Step-anchored crash events
	// with CrashStep 0 inherit that step too (and are re-nudged on retry),
	// and the simulator aims step crashes with an empty Target at the
	// crash target. Observe refuses a scenario sim.ValidateScenario refuses.
	Scenario []sim.FaultSpec
	// Detect toggles the fault-tolerance pruning analyses (ablations only).
	Detect detect.Options
	// Parallelism bounds the worker pool everywhere the pipeline fans out:
	// RunEvaluation's per-workload passes, TriggerAll's per-report replays
	// and a campaign's runs. 0 (the default) means GOMAXPROCS; 1 forces the
	// fully sequential path. Every setting produces byte-identical reports,
	// tables, and counters — results are collected in deterministic order
	// regardless of schedule.
	Parallelism int
	// Metrics, when non-nil, receives pipeline phase spans (observation
	// runs, index builds, each detector, compound pairing) and is forwarded
	// to the detectors for per-rule pruning counters. Strictly observe-only:
	// reports and traces are byte-identical with or without it. nil (the
	// default) is a cheap no-op.
	Metrics *obs.Registry
}

// DefaultOptions is the paper's evaluation setting.
func DefaultOptions() Options {
	return Options{Seed: 1, Phase: PhaseBegin, Tracing: sim.TraceSelective}
}

// Timings is the Table 4 row for one workload (durations in wall-clock).
type Timings struct {
	BaselineFaultFree time.Duration
	BaselineFaulty    time.Duration
	TracingFaultFree  time.Duration
	TracingFaulty     time.Duration
	AnalysisRegular   time.Duration
	AnalysisRecovery  time.Duration
}

// Overall is tracing + analysis time (the paper's "Overall" column).
func (t Timings) Overall() time.Duration {
	return t.TracingFaultFree + t.TracingFaulty + t.AnalysisRegular + t.AnalysisRecovery
}

// Slowdown is Overall / fault-free baseline.
func (t Timings) Slowdown() float64 {
	if t.BaselineFaultFree <= 0 {
		return 0
	}
	return float64(t.Overall()) / float64(t.BaselineFaultFree)
}

// Observation is one checkpoint-paired pair of correct runs.
type Observation struct {
	FaultFree        *trace.Trace
	Faulty           *trace.Trace
	FaultFreeOutcome *sim.Outcome
	FaultyOutcome    *sim.Outcome
	// CrashedPIDs are the processes the scenario crashed, in injection
	// order: the crash victims of FaultFirings, kept as a flat list for
	// callers that only need "the crashed node(s)".
	CrashedPIDs []string
	// FaultFirings are the scenario events that actually fired during the
	// faulty run, in firing order — the per-fault surface hazard-window
	// derivation consumes (each firing keeps its step, anchor and victim,
	// which the flat CrashedPIDs list loses).
	FaultFirings []trace.FaultFiring
	Timings      Timings
}

// scenarioPlan lowers the observation scenario for one faulty attempt:
// step-anchored crash events with no explicit step inherit the phase-chosen
// (and, on retry, nudged) step. The plan aims step crashes that name no
// victim at the workload's crash target.
func scenarioPlan(w Workload, scenario []sim.FaultSpec, step int64) *sim.FaultPlan {
	specs := append([]sim.FaultSpec(nil), scenario...)
	for i := range specs {
		if s := &specs[i]; s.Site == "" && s.Delay == 0 && s.CrashStep == 0 {
			s.CrashStep = step
		}
	}
	return sim.NewScenarioPlan(specs, w.CrashTarget(), w.RestartRoles())
}

// Run is the one way a workload is executed: tune the config, build the
// cluster, configure the system in it, run it, and — if the run finished
// cleanly — let the workload's correctness oracle fill out.CheckErr, so
// Outcome.Failed, FailureKind and Detail are the one verdict every caller
// reads.
func Run(w Workload, cfg sim.Config) (*sim.Cluster, *sim.Outcome) {
	w.Tune(&cfg)
	c := sim.NewCluster(cfg)
	w.Configure(c)
	out := c.Run()
	if !out.Failed() {
		out.CheckErr = w.Check(c)
	}
	return c, out
}

// Expected reports whether a failure's description (an Outcome.Detail or a
// campaign symptom) matches one of the workload's expected fault reactions
// (e.g. HMaster legitimately waits forever when every regionserver is gone).
func Expected(w Workload, s string) bool {
	for _, pat := range w.ExpectedBehaviors() {
		if pat != "" && strings.Contains(s, pat) {
			return true
		}
	}
	return false
}

// runOnce is Run with the pipeline's tracing cost model.
func runOnce(w Workload, seed int64, mode sim.TracingMode, plan *sim.FaultPlan) (*sim.Cluster, *sim.Outcome) {
	return Run(w, sim.Config{Seed: seed, Tracing: mode, Plan: plan, TraceTickCost: TraceTickCost(mode)})
}

// TraceTickCost is the simulated ticks each traced record adds to the
// logical clock under mode (sim.Config.TraceTickCost): it models
// instrumentation slowdown inside simulated time. The selective tracer is
// cheap; tracing every heap access is not (§8.2).
func TraceTickCost(mode sim.TracingMode) int64 {
	switch mode {
	case sim.TraceExhaustive:
		return 6
	case sim.TraceSelective:
		return 1
	}
	return 0
}

// Observe produces the pair of correct runs FCatch analyzes (Section 3.1).
// The fault-free run is traced first; then the run is deterministically
// replayed with a crash of the workload's crash target injected at the
// phase-chosen step. If the faulty run turns out incorrect (the random crash
// point landed inside a bug window — rare by construction), the crash point
// is nudged and the replay repeated, mirroring "almost every random fault
// injection works".
func Observe(w Workload, opts Options) (*Observation, error) {
	obs, _, _, err := observe(w, opts, false)
	return obs, err
}

// ObserveIndexed is Observe plus the two happens-before graphs. Each graph is
// built after its run has ended and passed its correctness check, from the
// complete trace (hb.New), so a retried faulty attempt never pays for
// indexing and a run's tracing time contains no index work. The build times
// seed Timings.AnalysisRegular (fault-free graph) and AnalysisRecovery
// (faulty graph). The returned graphs are what Detect hands to the
// detectors.
func ObserveIndexed(w Workload, opts Options) (*Observation, *hb.Graph, *hb.Graph, error) {
	return observe(w, opts, true)
}

func observe(w Workload, opts Options, withGraphs bool) (*Observation, *hb.Graph, *hb.Graph, error) {
	if len(opts.Scenario) > 0 {
		if err := sim.ValidateScenario(opts.Scenario); err != nil {
			return nil, nil, nil, err
		}
	}
	obs := &Observation{}

	if opts.MeasureBaseline {
		obs.Timings.BaselineFaultFree = baseline(w, opts.Seed, func() *sim.FaultPlan { return nil })
	}

	// index builds a run's graph and returns how long that took — the part
	// of Table 4's analysis column that is not detector time.
	index := func(span string, t *trace.Trace) (*hb.Graph, time.Duration) {
		if !withGraphs {
			return nil, 0
		}
		t0 := time.Now()
		g := hb.New(t)
		d := time.Since(t0)
		opts.Metrics.ObserveSpan(span, d)
		return g, d
	}

	endFF := opts.Metrics.Span("core/observe/fault-free")
	cf, outF := runOnce(w, opts.Seed, opts.Tracing, nil)
	endFF()
	if outF.Failed() {
		return nil, nil, nil, fmt.Errorf("core: fault-free run of %s is incorrect (%s): %s", w.Name(), outF.FailureKind(), outF.Detail())
	}
	obs.FaultFree = cf.Trace()
	obs.FaultFreeOutcome = outF
	obs.Timings.TracingFaultFree = outF.Elapsed
	gf, d := index("core/index/fault-free", obs.FaultFree)
	obs.Timings.AnalysisRegular = d

	// The scenario to inject: by default, one crash of the workload's crash
	// target at the phase-chosen step.
	scenario := opts.Scenario
	if len(scenario) == 0 {
		scenario = []sim.FaultSpec{{Action: sim.ActionNodeCrash}}
	}

	total := outF.Steps
	step := int64(float64(total) * opts.Phase.fraction())
	var last *sim.Outcome
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 {
			opts.Metrics.Counter("core/observe/retries").Inc()
		}
		endAttempt := opts.Metrics.Span("core/observe/faulty-attempt")
		plan := scenarioPlan(w, scenario, step)
		// A faulty attempt can fail its correctness check and be retried
		// (HB2 deterministically retries twice); only the attempt that
		// passes is indexed.
		cy, outY := runOnce(w, opts.Seed, opts.Tracing, plan)
		endAttempt()
		if outY.Failed() {
			last = outY
			step += total/23 + 7 // nudge the crash point and retry
			continue
		}
		gy, d := index("core/index/faulty", cy.Trace())
		obs.Timings.AnalysisRecovery = d
		if opts.MeasureBaseline {
			obs.Timings.BaselineFaulty = baseline(w, opts.Seed, func() *sim.FaultPlan { return scenarioPlan(w, scenario, step) })
		}
		obs.Faulty = cy.Trace()
		obs.FaultyOutcome = outY
		obs.Timings.TracingFaulty = outY.Elapsed
		obs.FaultFirings = outY.FaultFirings
		for _, f := range outY.FaultFirings {
			if f.Action == sim.ActionNodeCrash && f.Victim != "" {
				obs.CrashedPIDs = append(obs.CrashedPIDs, f.Victim)
			}
		}
		return obs, gf, gy, nil
	}
	return nil, nil, nil, fmt.Errorf("core: could not obtain a correct faulty run of %s (%s): %s", w.Name(), last.FailureKind(), last.Detail())
}

// baselineRuns is how many untraced runs a Table 4 baseline is the fastest
// of: a run takes about a millisecond, so one garbage collection or
// preemption inside a single run can make it cost more than tracing and
// analysis together.
const baselineRuns = 3

// baseline times the untraced run of w with plan's faults (a fresh plan per
// run: plans record their firings) and returns the fastest of baselineRuns.
func baseline(w Workload, seed int64, plan func() *sim.FaultPlan) time.Duration {
	var best time.Duration
	for i := 0; i < baselineRuns; i++ {
		if _, out := runOnce(w, seed, sim.TraceOff, plan()); i == 0 || out.Elapsed < best {
			best = out.Elapsed
		}
	}
	return best
}

// Result is one full detection pass over a workload.
type Result struct {
	Workload    string
	Options     Options
	Observation *Observation
	Regular     *detect.RegularResult
	Recovery    *detect.RecoveryResult
	// Reports is the merged, deduplicated report list.
	Reports []*detect.Report
	// Windows are the observation's hazard windows, derived once from the
	// scenario's fault firings and shared by both detectors. A single-fault
	// observation has exactly one.
	Windows []detect.Window
	// Compound are the cross-window pairing findings: faults that landed
	// inside an earlier fault's recovery window. Always empty for
	// single-fault observations.
	Compound []*detect.CompoundReport
}

// Detect runs the full FCatch pipeline (Figure 2, steps 1–3) on a workload.
// Each run's trace is indexed once the run is in hand (ObserveIndexed), and
// the crash-regular and then the crash-recovery analysis run over the two
// graphs on the calling goroutine.
func Detect(w Workload, opts Options) (*Result, error) {
	obs, gf, gy, err := ObserveIndexed(w, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Workload: w.Name(), Options: opts, Observation: obs}

	// Table 4 attribution: each run's index build counts toward the analysis
	// that primarily consumes its graph — the fault-free index toward
	// crash-regular, the faulty index toward crash-recovery (ObserveIndexed
	// seeded those fields with the two build times), so the stage timings
	// stay disjoint and "Overall" keeps the paper's serial accounting of the
	// same work.
	//
	// The detectors learn the fault surface from the scenario's actual
	// firings, not from the workload interface: each firing keeps its step,
	// anchor and victim, and the hazard windows are derived from them once
	// here, shared by both detectors and the compound pairing pass.
	dopts := opts.Detect
	if dopts.Metrics == nil {
		dopts.Metrics = opts.Metrics
	}
	dopts.Windows = detect.DeriveWindows(obs.Faulty, obs.FaultFirings)
	res.Windows = dopts.Windows
	opts.Metrics.Counter("detect/windows").Add(int64(len(res.Windows)))
	t0 := time.Now()
	res.Regular = detect.DetectRegularOpts(gf, w.Name(), dopts)
	d := time.Since(t0)
	obs.Timings.AnalysisRegular += d
	opts.Metrics.ObserveSpan("detect/analysis/regular", d)

	t0 = time.Now()
	res.Recovery = detect.DetectRecoveryOpts(gf, gy, w.Name(), dopts)
	d = time.Since(t0)
	obs.Timings.AnalysisRecovery += d
	opts.Metrics.ObserveSpan("detect/analysis/recovery", d)

	res.Reports = append(res.Reports, res.Regular.Reports...)
	res.Reports = append(res.Reports, res.Recovery.Reports...)
	res.Reports = detect.Dedup(res.Reports)
	opts.Metrics.Counter("detect/reports").Add(int64(len(res.Reports)))
	if len(res.Windows) > 1 {
		endCompound := opts.Metrics.Span("detect/compound")
		res.Compound = detect.DetectCompound(gy, res.Windows, w.Name())
		endCompound()
	}
	return res, nil
}
