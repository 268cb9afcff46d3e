// Package inject implements FCatch's bug-triggering module (Section 5). The
// random fault-injection baseline it is compared against (Section 8.3) is
// the campaign engine's `random` strategy (internal/campaign).
package inject

import (
	"context"
	"fmt"
	"sync"

	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/parallel"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// Classification is the verdict triggering gives a report.
type Classification int

const (
	// TrueBug: injecting the fault at the reported moment causes a real
	// failure (hang, fatal error, job/system failure, data loss).
	TrueBug Classification = iota
	// Expected: the fault causes a visible but acceptable reaction — a
	// well-handled exception or behaviour the system intends (the "Exp."
	// false-positive column of Table 3).
	Expected
	// Benign: nothing observable goes wrong (the "False" column).
	Benign
)

func (c Classification) String() string {
	switch c {
	case TrueBug:
		return "true-bug"
	case Expected:
		return "expected"
	}
	return "benign"
}

// Outcome is the result of triggering one report.
type Outcome struct {
	Report *detect.Report
	Class  Classification
	// ByAction records, per fault type tried (node-crash, kernel-drop,
	// app-drop), whether it produced a failure — the Section 8.4 matrix.
	ByAction map[string]bool
	// FailureKind/Detail describe the observed failure (if any).
	FailureKind string
	Detail      string
}

// Triggerer replays workloads with precisely aimed faults.
type Triggerer struct {
	W    core.Workload
	Seed int64
	// Parallelism bounds how many reports TriggerAll, or compound variants
	// TriggerCompound, replays concurrently (0 = GOMAXPROCS, 1 =
	// sequential). Every replay builds its own cluster, and outcomes land
	// in per-replay slots, so the result is identical at any setting.
	Parallelism int
	// Windows are the observation's hazard windows. A report from a later
	// window replays the faults that opened the windows before it, so its
	// aimed fault lands in the recovery context it was detected in. Nil
	// suits single-fault observations, whose reports all sit in window 0.
	Windows []detect.Window
	// FaultFreePicks are the scheduler picks of the workload's fault-free
	// run at Seed under selective tracing, which size every replay's stall
	// rule. An observation made that way has them (its FaultFreeOutcome);
	// 0 makes the triggerer measure them with one fault-free run of its own.
	FaultFreePicks int64

	// stall sizes, once, every replay's stall rule: stallPicks =
	// stallMultiple × the fault-free run's picks.
	stall      sync.Once
	stallPicks int64
}

// stallMultiple is a trigger replay's stall rule in multiples of the
// scheduler picks its workload's fault-free run makes: a replay whose
// non-daemon threads reach no new op site for that much work is hung. No
// replay of the six workloads at seeds 1–10 that ends ok or check goes more
// than 0.86× without a new site (ZK's tail after its last new site; between
// two new sites at most 0.65×), so 2 keeps a 2.3× margin
// (TestStallCutsOnlyHangs pins it below 1× on all three replay paths). The
// workload's clock budget (Config.MaxSteps) stays the outer bound.
const stallMultiple = 2

// NewTriggerer builds a triggerer for one workload/seed (use the same seed
// as the observation runs so occurrence counts line up).
func NewTriggerer(w core.Workload, seed int64) *Triggerer {
	return &Triggerer{W: w, Seed: seed}
}

// WindowEvent lowers a hazard window's anchor back to the scenario event
// that opened it: site-anchored windows replay at their recorded
// site/occurrence/edge, step-anchored ones at their open step. Crash events
// aim at the victim's role, so they hit whatever incarnation is current when
// they fire.
func WindowEvent(w *detect.Window) sim.FaultSpec {
	ev := sim.FaultSpec{Action: w.Action, Site: w.Site, Occurrence: w.Occurrence, When: w.When}
	if w.Site == "" {
		ev.CrashStep = w.Step
	}
	if w.Kind() == detect.WindowCrashRecovery {
		ev.Target = w.Role()
		// The window recovered in the observation, so the rebuilt event must
		// force the same restart — the workload's own policy may leave the
		// victim down (the observed restart could have come from a forced
		// restart= in the scenario).
		if w.Incarnation != "" && w.RestartStep > w.Step {
			d := w.RestartStep - w.Step
			ev.Restart = &d
		}
	}
	return ev
}

// prefixEvents rebuilds the scenario events that open every window before
// windowID — the context a later window's fault needs to land in (its victim
// incarnation only exists once the earlier faults and restarts have run).
func prefixEvents(windows []detect.Window, windowID int) []sim.FaultSpec {
	var out []sim.FaultSpec
	for i := range windows {
		if w := &windows[i]; w.ID < windowID {
			out = append(out, WindowEvent(w))
		}
	}
	return out
}

// TriggerScenario is the injection scenario Trigger replays for a report,
// rebuilt from the report's anchors and (for reports from later hazard
// windows) the windows preceding it. For crash-regular reports it is the
// node-crash flavor of the three fault types Trigger tries (Trigger swaps
// the event's action for the other two).
func TriggerScenario(rep *detect.Report, windows []detect.Window) []sim.FaultSpec {
	if rep.Type == detect.CrashRegular {
		wp := rep.WPrime
		if wp == nil {
			return nil
		}
		return []sim.FaultSpec{{
			Site: wp.Site, Occurrence: wp.Occurrence, When: trace.WhenBefore, Action: trace.ActionNodeCrash,
		}}
	}
	when := trace.WhenAfter
	if rep.WInFaultyRun {
		when = trace.WhenBefore
	}
	return append(prefixEvents(windows, rep.WindowID), sim.FaultSpec{
		Site: rep.W.Site, Occurrence: rep.W.Occurrence, When: when,
		Action: trace.ActionNodeCrash, Target: rep.CrashTargetRole,
	})
}

// Trigger replays the workload with the report's fault injected and
// classifies the report (Section 5). Crash-regular reports are tried with
// all three fault types: a node crash right before W′, a kernel-level drop
// of W′, and an application-level drop of W′. Crash-recovery reports get a
// node crash right before or after W (depending on where W was observed),
// with the crashed role restarted so recovery runs; a report from a later
// hazard window first replays the faults of tg.Windows that preceded it.
func (tg *Triggerer) Trigger(rep *detect.Report) *Outcome {
	out := &Outcome{Report: rep, Class: Benign, ByAction: map[string]bool{}}
	events := TriggerScenario(rep, tg.Windows)
	if events == nil {
		return out
	}
	actions := []string{trace.ActionNodeCrash}
	// Crash-recovery replays restart the crashed role so recovery runs. For
	// crash-regular ones the paper emulates the crash with Runtime.halt(-1):
	// the victim stays down; the remaining nodes must cope.
	restart := tg.W.RestartRoles()
	if rep.Type == detect.CrashRegular {
		actions, restart = trace.ActionNames(), nil
	}
	for _, act := range actions {
		events[len(events)-1].Action = act
		cls, kind, detail := tg.replay(events, restart, &handledExcFold{site: rep.R.Site})
		out.ByAction[act] = cls == TrueBug
		// The strongest verdict across fault types wins (TrueBug < Expected
		// < Benign in severity order).
		if cls < out.Class {
			out.Class = cls
			out.FailureKind = kind
			out.Detail = detail
		}
	}
	return out
}

// replay runs the workload once with events injected (restart is the role
// restart policy, nil = victims stay down) and classifies the run. Replays
// keep no trace: their ops pass through fold — classification needs only its
// verdict — so a replay allocates for its live state and dependences, not per
// op. A nil fold (compound replays classify by outcome alone) still folds,
// into nothing, and reads no dependences.
func (tg *Triggerer) replay(events []sim.FaultSpec, restart map[string]int64, fold *handledExcFold) (Classification, string, string) {
	cfg := tg.replayConfig(events, restart)
	cfg.Fold = fold
	_, out := core.Run(tg.W, cfg)
	return tg.classify(out, fold)
}

// replayConfig is the simulator configuration of one replay, less its fold:
// replay sets Config.Fold, so every replay folds and keeps no trace.
// Its stall rule comes from the workload's fault-free run under the same
// tracing and tick cost (so the same picks) as a selective observation's
// (StallPicks).
func (tg *Triggerer) replayConfig(events []sim.FaultSpec, restart map[string]int64) sim.Config {
	cfg := tg.baseConfig()
	cfg.Plan, cfg.StallPicks = sim.NewScenarioPlan(events, tg.W.CrashTarget(), restart), tg.StallPicks()
	return cfg
}

// baseConfig is what every run a triggerer makes shares: its seed, and
// selective tracing at the observation's tick cost.
func (tg *Triggerer) baseConfig() sim.Config {
	return sim.Config{Seed: tg.Seed, Tracing: sim.TraceSelective, TraceTickCost: core.TraceTickCost(sim.TraceSelective)}
}

// StallPicks is the stall rule tg's replays run under (sim.Config.StallPicks):
// stallMultiple × the fault-free run's picks. When FaultFreePicks is 0 the
// first call measures them with a fault-free run that folds into nothing and
// tracks no dependences.
func (tg *Triggerer) StallPicks() int64 {
	tg.stall.Do(func() {
		picks := tg.FaultFreePicks
		if picks == 0 {
			ff := tg.baseConfig()
			ff.Fold = (*handledExcFold)(nil)
			_, out := core.Run(tg.W, ff)
			picks = out.Picks
		}
		tg.stallPicks = stallMultiple * picks
	})
	return tg.stallPicks
}

// classify turns a trigger run's outcome into a verdict for one report.
func (tg *Triggerer) classify(out *sim.Outcome, fold *handledExcFold) (Classification, string, string) {
	if out.Failed() {
		detail := out.Detail()
		if core.Expected(tg.W, detail) {
			return Expected, "expected-" + out.FailureKind(), detail
		}
		return TrueBug, out.FailureKind(), detail
	}

	// The run completed correctly. If the fault provoked an exception that
	// is data/control-dependent on the report's read — and the system
	// handled it — this is the paper's "well-handled exception" category.
	// The dependence requirement keeps unrelated recovery-path exceptions
	// from contaminating other reports' verdicts.
	if fold != nil && fold.found {
		return Expected, "handled-exception", fold.detail
	}
	return Benign, "", ""
}

// handledExcFold detects the "well-handled exception" condition in one pass
// over a replay's facts: a KThrow whose taint or control set contains an
// execution of the report's read site. It names that site as its source
// (DepSite), so the replay hands op IDs back only at the site and every ID
// in a fact's Taint or Ctl is an execution of it: a throw with either set
// non-empty is the throw sought. A nil fold names no site, reads no
// dependences and looks for nothing.
type handledExcFold struct {
	site string // the report's read site, as a string

	found  bool
	detail string
}

// Fact folds one fact.
func (f *handledExcFold) Fact(x sim.Fact) {
	if f == nil || f.found || x.Kind != trace.KThrow {
		return
	}
	if len(x.Taint) > 0 || len(x.Ctl) > 0 {
		f.found, f.detail = true, x.Aux+"@"+x.SiteName
	}
}

// DepSite names the report's read site; a nil fold names none.
func (f *handledExcFold) DepSite() string {
	if f == nil {
		return ""
	}
	return f.site
}

// CompoundOutcome is the result of replaying a cross-window finding's two
// window anchors as one scenario.
type CompoundOutcome struct {
	Compound *detect.CompoundReport
	// Scenario is the rebuilt two-event scenario whose replay produced the
	// verdict (the observed-policy scenario when every variant was benign).
	Scenario    []sim.FaultSpec
	Class       Classification
	FailureKind string
	Detail      string
	// Variant names the recovery policy that produced the verdict:
	// "as-observed", "inner-down", "inner-restart@<delay>" or "outer-down".
	Variant string
}

// compoundRestartDelay is the restart timescale a recovery-policy variant
// assumes when the observation recorded none.
const compoundRestartDelay = 40

// compoundRestartProbes caps how many restart delays the timing grid tries
// for a crash-opened inner window. Below the cap the grid is exhaustive
// (every delay up to the observed timescale): the harmful restart timings
// are narrow — a few ticks wide — so a sparse grid walks right past them.
const compoundRestartProbes = 64

// TriggerCompound rebuilds the scenario a compound finding describes — the
// outer window's fault, then the inner fault landing inside the outer
// recovery — and probes the recovery policies an operator could apply to the
// victims. The observation itself was tolerated (core.Observe only accepts
// correct faulty runs), so verbatim anchors are the baseline and the
// perturbed policies carry the verdict. For a crash-opened inner window the
// inner victim is left down for good and, separately, restarted on an even
// grid of delays across the observed recovery timescale — a time-of-fault
// failure is a timing failure, so the trigger walks the one timing axis the
// anchors leave free. For a drop-opened inner window the outer victim is the
// one left down, so nothing ever re-sends the dropped message. The strongest
// verdict across variants wins.
//
// The variants replay up to tg.Parallelism at a time, and their verdicts are
// reduced in variant order, so the outcome is the same at any setting.
func (tg *Triggerer) TriggerCompound(rep *detect.CompoundReport) *CompoundOutcome {
	variants := compoundVariants(rep)
	type verdict struct {
		cls          Classification
		kind, detail string
	}
	verdicts, _ := parallel.Map(context.Background(), tg.Parallelism, len(variants), func(i int) verdict {
		cls, kind, detail := tg.replay(variants[i].scenario, tg.W.RestartRoles(), nil)
		return verdict{cls, kind, detail}
	})
	out := &CompoundOutcome{Compound: rep, Scenario: variants[0].scenario,
		Class: Benign, Variant: variants[0].name}
	for i, v := range verdicts {
		if v.cls < out.Class {
			out.Class, out.FailureKind, out.Detail = v.cls, v.kind, v.detail
			out.Scenario, out.Variant = variants[i].scenario, variants[i].name
		}
	}
	return out
}

// compoundVariant is one recovery policy TriggerCompound replays.
type compoundVariant struct {
	name     string
	scenario []sim.FaultSpec
}

// compoundVariants lists the scenarios TriggerCompound replays for rep, the
// as-observed one first.
func compoundVariants(rep *detect.CompoundReport) []compoundVariant {
	outer, inner := WindowEvent(&rep.Outer), WindowEvent(&rep.Inner)
	variant := func(name string, outerR, innerR *int64) compoundVariant {
		oe, ie := outer, inner
		oe.Restart, ie.Restart = outerR, innerR
		return compoundVariant{name, []sim.FaultSpec{oe, ie}}
	}
	pin := int64(-1)
	variants := []compoundVariant{variant("as-observed", outer.Restart, inner.Restart)}
	if rep.Inner.Kind() != detect.WindowCrashRecovery {
		return append(variants, variant("outer-down", &pin, inner.Restart))
	}
	variants = append(variants, variant("inner-down", outer.Restart, &pin))
	// The grid's scale: the inner victim's observed restart delay, else
	// the outer window's, else the default operator timescale.
	scale := rep.Inner.RestartStep - rep.Inner.Step
	if scale <= 0 {
		scale = rep.Outer.RestartStep - rep.Outer.Step
	}
	if scale <= 0 {
		scale = compoundRestartDelay
	}
	step := (scale + compoundRestartProbes - 1) / compoundRestartProbes
	for d := step; d <= scale; d += step {
		if inner.Restart != nil && d == *inner.Restart {
			continue // the as-observed variant already covers this delay
		}
		variants = append(variants, variant(fmt.Sprintf("inner-restart@%d", d), outer.Restart, &d))
	}
	return variants
}

// TriggerAll classifies every report and returns outcomes in report order,
// replaying up to tg.Parallelism reports concurrently.
func (tg *Triggerer) TriggerAll(reports []*detect.Report) []*Outcome {
	outs, _ := parallel.Map(context.Background(), tg.Parallelism, len(reports), func(i int) *Outcome {
		return tg.Trigger(reports[i])
	})
	return outs
}
