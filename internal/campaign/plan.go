// Package campaign is the coverage-guided fault-injection campaign engine:
// a search layer on top of the deterministic simulator that explores the
// fault space of a workload (where/when/what to inject) and measures how
// many distinct failure modes each search strategy exposes per run budget.
//
// The paper's Section 8.3 baseline — N uniform-random crash injections —
// becomes one Strategy among several. The engine adds a fault-space model
// enumerated from a fault-free trace, a per-run behavior signature with a
// dedupe corpus, and persistence so campaigns can be stopped, resumed, and
// diffed. Identical (workload, seed, budget, strategy) inputs produce an
// identical corpus at any parallelism: every decision a strategy makes is
// drawn before its batch runs, and results merge in run order.
package campaign

import "fcatch/internal/sim"

// Plan is one candidate injection scenario: the ordered fault events of one
// run, in the same JSON-stable form the CLIs' -scenario flag parses, corpora
// store and leases carry. Most plans hold a single event — a step crash (the
// `random` strategy's Section 8.3 baseline: crash the workload's crash target
// when the logical clock reaches CrashStep) or a site point (inject Action at
// the Occurrence-th execution of Site, which is what the fault-space model
// enumerates); composite plans chain follow-up events. A plan is never empty.
type Plan []sim.FaultSpec

// Key is the canonical identity of the plan, used for corpus resume checks:
// its -scenario string (sim.ParseScenario(p.Key()) is p).
func (p Plan) Key() string { return sim.FormatScenario(p) }

func (p Plan) String() string { return p.Key() }

// simPlan lowers the plan to the simulator's fault-plan form. Step crashes
// with no explicit target aim at the workload's crash target — on the run's
// own event copies, never on p, which parallel runs share; scenarios
// containing a node crash carry the workload's restart map (the operator
// restarts dead nodes, as in the random baseline) while pure drop plans
// leave nothing to restart.
func (p Plan) simPlan(target string, restart map[string]int64) *sim.FaultPlan {
	withRestart := false
	for i := range p {
		if p[i].Site == "" || p[i].Action == sim.ActionNodeCrash {
			withRestart = true
		}
	}
	if !withRestart {
		restart = nil
	}
	fp := sim.NewScenarioPlan(p, restart)
	for i := range fp.Events {
		if ev := &fp.Events[i]; ev.Site == "" && ev.Target == "" && ev.Delay == 0 {
			ev.Target = target
		}
	}
	return fp
}
