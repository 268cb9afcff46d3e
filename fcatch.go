// Package fcatch is a from-scratch reproduction of "FCatch: Automatically
// Detecting Time-of-fault Bugs in Cloud Systems" (ASPLOS 2018).
//
// FCatch predicts time-of-fault (TOF) bugs — failures that manifest only
// when a node crashes or a message drops at a special moment — by observing
// *correct* executions of a distributed system:
//
//	obs, _ := fcatch.Detect(fcatch.MustWorkload("MR1"), fcatch.DefaultOptions())
//	for _, report := range obs.Reports {
//	    fmt.Println(report)
//	}
//	outcomes := fcatch.Trigger(fcatch.MustWorkload("MR1"), obs)
//
// The package bundles deterministic miniature reproductions of the paper's
// four target systems (MapReduce, HBase, Cassandra, ZooKeeper) running on a
// cooperative cluster simulator, the two TOF bug detectors (crash-regular
// and crash-recovery), the fault-tolerance pruning analyses, the automated
// bug-triggering module, and the random fault-injection baseline. See
// DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-vs-reproduction comparison of every table.
package fcatch

import (
	"fmt"

	"fcatch/internal/apps/cassandra"
	"fcatch/internal/apps/hbase"
	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/toy"
	"fcatch/internal/apps/zookeeper"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/inject"
	"fcatch/internal/obs"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// Re-exported core types, so downstream users only import this package.
type (
	// Workload is a benchmark system + driver (a Table 1 row).
	Workload = core.Workload
	// Options parameterizes a detection pass.
	Options = core.Options
	// Result is one full detection pass (observation + reports).
	Result = core.Result
	// Report is one predicted TOF bug.
	Report = detect.Report
	// TriggerOutcome is the verdict of replaying one report's fault.
	TriggerOutcome = inject.Outcome
	// Phase selects where the observation crash lands.
	Phase = core.Phase
	// Window is one hazard window of an observation: the interval a fault
	// opened, who it hit, and who recovers inside it. Result.Windows lists
	// them; Report.WindowID anchors each crash-recovery report in one.
	Window = detect.Window
	// WindowKind distinguishes crash-recovery from drop-induced windows.
	WindowKind = detect.WindowKind
	// CompoundReport pairs two hazard windows of a multi-fault observation:
	// the inner window's fault fired inside the outer window's recovery.
	CompoundReport = detect.CompoundReport
	// CompoundOutcome is the verdict of replaying a compound report's two
	// window anchors as a fresh scenario.
	CompoundOutcome = inject.CompoundOutcome
	// Metrics is a named registry of atomic counters, bounded histograms and
	// monotonic phase spans. Attach one via Options.Metrics (or the
	// campaign/dist equivalents) to observe where the pipeline spends its
	// budget; a nil Metrics is the free no-op default. Metrics are strictly
	// observe-only: every other output is byte-identical with or without one.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a Metrics registry, the
	// unit `-metrics out.json` serializes.
	MetricsSnapshot = obs.Snapshot
	// Decision is one candidate's pruning verdict, recorded when
	// Options.Detect.Explain is set: the first §4 rule that discarded it, or
	// "kept".
	Decision = detect.Decision
)

// Hazard-window kinds.
const (
	WindowCrashRecovery = detect.WindowCrashRecovery
	WindowDropInduced   = detect.WindowDropInduced
)

// Observation-crash phases (Section 8.1.2 sensitivity study).
const (
	PhaseBegin  = core.PhaseBegin
	PhaseMiddle = core.PhaseMiddle
	PhaseEnd    = core.PhaseEnd
)

// Trigger classifications.
const (
	TrueBug  = inject.TrueBug
	Expected = inject.Expected
	Benign   = inject.Benign
)

// BugType aliases the detector's bug-type enum.
type BugType = detect.BugType

// The two TOF bug classes of Section 2.
const (
	CrashRegularBug  = detect.CrashRegular
	CrashRecoveryBug = detect.CrashRecovery
)

// DefaultOptions is the paper's evaluation setting: selective tracing, crash
// near the beginning of the execution.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewMetrics returns an empty live metrics registry.
func NewMetrics() *Metrics { return obs.New() }

// Pruning-rule names for Decision.Rule.
const (
	RuleKept        = detect.RuleKept
	RuleWaitTimeout = detect.RuleWaitTimeout
	RuleLoopTimeout = detect.RuleLoopTimeout
	RuleSanityCheck = detect.RuleSanityCheck
	RuleReset       = detect.RuleReset
	RuleImpact      = detect.RuleImpact
)

// PruneRuleNames lists every Decision.Rule value in kill-table display order.
func PruneRuleNames() []string { return detect.RuleNames() }

// ExplainDecisions collects a detection result's per-candidate decision
// trail, crash-regular first: one entry per candidate either detector judged.
// Empty unless the pass ran with Options.Detect.Explain.
func ExplainDecisions(res *Result) []Decision {
	var out []Decision
	if res.Regular != nil {
		out = append(out, res.Regular.Decisions...)
	}
	if res.Recovery != nil {
		out = append(out, res.Recovery.Decisions...)
	}
	return out
}

// Workloads returns the six benchmark workloads of Table 1, in table order.
func Workloads() []Workload {
	return []Workload{
		cassandra.New(),
		hbase.NewHB1(),
		hbase.NewHB2(),
		mapreduce.NewMR1(),
		mapreduce.NewMR2(),
		zookeeper.New(),
	}
}

// ByName returns the workload with the given benchmark name ("CA1&2", "HB1",
// "HB2", "MR1", "MR2", "ZK") or the tutorial workload "TOY".
func ByName(name string) (Workload, error) {
	if name == "TOY" {
		return toy.New(), nil
	}
	for _, w := range Workloads() {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("fcatch: unknown workload %q", name)
}

// MustWorkload is ByName, panicking on unknown names (for examples/tests).
func MustWorkload(name string) Workload {
	w, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return w
}

// Detect runs the full FCatch pipeline (Figure 2) on a workload: observe a
// fault-free run and a checkpoint-paired correct faulty run, analyze both
// traces with the crash-regular and crash-recovery detectors, prune, and
// return the deduplicated reports.
func Detect(w Workload, opts Options) (*Result, error) {
	return core.Detect(w, opts)
}

// Trigger replays every report's fault (Section 5) and classifies each as a
// true bug, an expected/handled reaction, or benign. It replays with the
// observation's seed so trigger points land on the reported operations,
// replays a later-window report after the faults that opened the windows
// before it (res.Windows), and fans the replays across
// res.Options.Parallelism workers (outcomes stay in report order).
func Trigger(w Workload, res *Result) []*TriggerOutcome {
	return triggerer(w, res).TriggerAll(res.Reports)
}

// triggerer builds the Triggerer that replays res's findings: the
// observation's seed (so trigger points land on the reported operations), its
// hazard windows, res.Options.Parallelism and — when the observation traced
// selectively, as replays do — its fault-free run's picks, which size the
// replays' stall rule without a fault-free run of their own.
func triggerer(w Workload, res *Result) *inject.Triggerer {
	tg := inject.NewTriggerer(w, res.Options.Seed)
	tg.Parallelism = res.Options.Parallelism
	tg.Windows = res.Windows
	if res.Options.Tracing == sim.TraceSelective {
		tg.FaultFreePicks = res.Observation.FaultFreeOutcome.Picks
	}
	return tg
}

// TriggerScenario rebuilds the fault scenario that replays one report from
// its window anchors: the events that re-open every earlier hazard window,
// then the report's own trigger event. FormatScenario renders the result as
// a `-scenario` string.
func TriggerScenario(rep *Report, windows []Window) []FaultSpec {
	return inject.TriggerScenario(rep, windows)
}

// CompoundScenario lowers a compound report's two window anchors back to the
// scenario events that re-open them, in order. FormatScenario renders the
// result as a `-scenario` string.
func CompoundScenario(rep *CompoundReport) []FaultSpec {
	return []FaultSpec{inject.WindowEvent(&rep.Outer), inject.WindowEvent(&rep.Inner)}
}

// TriggerCompounds replays a result's compound reports and returns their
// outcomes in res.Compound order. Each replay lowers both window anchors back
// to scenario events and injects them in order, confirming (or refuting) that
// the inner fault landing inside the outer window reproduces the composite
// failure under some recovery policy. A report's recovery-policy variants
// replay across res.Options.Parallelism workers.
func TriggerCompounds(w Workload, res *Result) []*CompoundOutcome {
	tg := triggerer(w, res)
	outs := make([]*CompoundOutcome, len(res.Compound))
	for i, c := range res.Compound {
		outs[i] = tg.TriggerCompound(c)
	}
	return outs
}

// Trace is one observation run's interned record stream. Record fields that
// name things (PID, Site, Res, ...) are symbols into the trace's table —
// resolve them with the Trace's Str/Lookup/Format methods.
type Trace = trace.Trace

// Trace-format identification for the versioned on-disk encoding.
const (
	// TraceFormatMagic is the 4-byte tag leading every trace file written
	// in the current binary format, FCT4; a file with any other is refused.
	TraceFormatMagic = trace.FormatMagic
	// TraceFormatVersion is the format generation the magic encodes (4).
	TraceFormatVersion = trace.FormatVersion
)

// ReportGroup is a correlated set of crash-recovery reports (the Section 2.3
// multi-resource extension).
type ReportGroup = detect.ReportGroup

// CorrelateRecovery groups a detection result's crash-recovery reports by
// the recovery activation that consumes them: one group = one recovery
// decision reading several of the crash node's leftovers, i.e. a single
// fault window touching multiple resources. This implements the extension
// the paper's Section 2.3 leaves as future work.
func CorrelateRecovery(res *Result) []ReportGroup {
	return detect.CorrelateRecovery(res.Observation.Faulty, res.Reports)
}
