package inject

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"fcatch/internal/apps/cassandra"
	"fcatch/internal/apps/hbase"
	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/zookeeper"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/parallel"
	"fcatch/internal/sim"
)

// replayOutcome is replay, returning the run's outcome beside its verdict.
func replayOutcome(tg *Triggerer, events []sim.FaultSpec, restart map[string]int64, readSite string) (*sim.Outcome, Classification, string) {
	fold := &handledExcFold{site: readSite}
	cfg := tg.replayConfig(events, restart)
	cfg.Fold = fold.Window
	_, out := core.Run(tg.W, cfg)
	cls, kind, _ := tg.classify(out, fold)
	return out, cls, kind
}

// withoutStallRule makes tg's replays run under the workload's clock budget
// alone and returns the StallPicks they would have run under.
func withoutStallRule(tg *Triggerer) (stallPicks int64) {
	tg.replayConfig(nil, nil) // measure the fault-free run
	stallPicks, tg.stallPicks = tg.stallPicks, 0
	return stallPicks
}

// cutByStall reports whether the stall rule ended a run made under
// stallPicks.
func cutByStall(out *sim.Outcome, stallPicks int64) bool {
	return out.StepBudgetHit && out.LongestStall > stallPicks
}

// budgetAttempt is one replay a trigger path makes: its scenario, restart
// policy and the read site its verdict folds for (empty for compound
// replays, which classify by outcome alone).
type budgetAttempt struct {
	path, label string // path: which trigger path makes it
	events      []sim.FaultSpec
	restart     map[string]int64
	readSite    string
}

// budgetAttempts lists every replay Trigger makes for res's reports
// (each fault type it tries; reports from later hazard windows replay their
// prefix events) and every variant TriggerCompound replays for res's
// compound reports.
func budgetAttempts(w core.Workload, res *core.Result) []budgetAttempt {
	var out []budgetAttempt
	for _, rep := range res.Reports {
		events := TriggerScenario(rep, res.Windows)
		if events == nil {
			continue
		}
		path := "window-0"
		if rep.WindowID > 0 {
			path = "later-window"
		}
		actions, restart := []string{sim.ActionNodeCrash}, w.RestartRoles()
		if rep.Type == detect.CrashRegular {
			actions, restart = sim.ActionNames(), nil
		}
		for _, act := range actions {
			ev := slices.Clone(events)
			ev[len(ev)-1].Action = act
			out = append(out, budgetAttempt{path, rep.Key() + " " + act, ev, restart, rep.R.Site})
		}
	}
	for _, c := range res.Compound {
		for _, v := range compoundVariants(c) {
			out = append(out, budgetAttempt{"compound", c.String() + " " + v.name, v.scenario, w.RestartRoles(), ""})
		}
	}
	return out
}

// TestStallCutsOnlyHangs replays every trigger attempt under the stall rule
// and under the clock budget alone: the six workloads' default single-fault
// observations, MR1's crash+recovery-crash and HB1's crash+drop composite
// observations (compound_test.go's), and a two-crash observation of CA1&2
// and ZK. Later-window reports replay their prefix faults; compound reports
// replay every recovery-policy variant TriggerCompound tries. The two must
// agree on every verdict and failure kind, every path must see the rule cut
// a hang, and no run that ends ok or check may go half its StallPicks
// without a new site — the margin stallMultiple is chosen for is pinned
// here, not assumed.
func TestStallCutsOnlyHangs(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	// twoCrashes crashes and restarts a node, then its fresh incarnation: on
	// CA1&2 and ZK the second window has reports of its own.
	const twoCrashes = "step=120,restart=40;delay=100,restart=40"
	composite := func(spec string) []sim.FaultSpec {
		sc, err := sim.ParseScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	observations := []struct {
		w        func() core.Workload
		scenario []sim.FaultSpec // nil: the workload's default single fault
	}{
		{w: func() core.Workload { return cassandra.New() }},
		{w: func() core.Workload { return hbase.NewHB1() }},
		{w: func() core.Workload { return hbase.NewHB2() }},
		{w: func() core.Workload { return mapreduce.NewMR1() }},
		{w: func() core.Workload { return mapreduce.NewMR2() }},
		{w: func() core.Workload { return zookeeper.New() }},
		{func() core.Workload { return mapreduce.NewMR1() },
			composite("site=sim/rpc.go:client-wait,occ=1,when=before,restart=40;delay=48")},
		{func() core.Workload { return hbase.NewHB1() },
			composite("site=apps/hbase/master096.go:202,occ=1,when=before,restart=150;" +
				"site=apps/hbase/master096.go:240,occ=1,when=before,action=kernel-drop")},
		{func() core.Workload { return cassandra.New() }, composite(twoCrashes)},
		{func() core.Workload { return zookeeper.New() }, composite(twoCrashes)},
	}
	type pathTally struct {
		attempts, stalled int
		worst             float64 // longest stretch without a new site in a run ending ok or check, in fault-free picks
	}
	type tally struct {
		paths map[string]pathTally
		errs  []string
	}
	tallies, err := parallel.Map(context.Background(), 0, len(observations)*seeds, func(i int) tally {
		o, seed := observations[i/seeds], int64(i%seeds+1)
		w := o.w()
		opts := core.DefaultOptions()
		opts.Seed, opts.Scenario = seed, o.scenario
		res, err := core.Detect(w, opts)
		if err != nil {
			return tally{errs: []string{fmt.Sprintf("%s seed %d: %v", w.Name(), seed, err)}}
		}
		tl := tally{paths: map[string]pathTally{}}
		ruled, free := NewTriggerer(w, seed), NewTriggerer(w, seed)
		stallPicks := withoutStallRule(free)
		for _, a := range budgetAttempts(w, res) {
			sOut, sCls, sKind := replayOutcome(ruled, a.events, a.restart, a.readSite)
			_, fCls, fKind := replayOutcome(free, a.events, a.restart, a.readSite)
			pt := tl.paths[a.path]
			pt.attempts++
			if cutByStall(sOut, stallPicks) {
				pt.stalled++
			}
			at := fmt.Sprintf("%s seed %d %s %s", w.Name(), seed, a.path, a.label)
			if sCls != fCls || sKind != fKind {
				tl.errs = append(tl.errs, fmt.Sprintf("%s: stall rule %v %q, clock budget alone %v %q", at, sCls, sKind, fCls, fKind))
			}
			if k := sOut.FailureKind(); k == "ok" || k == "check" {
				pt.worst = max(pt.worst, float64(sOut.LongestStall)*stallMultiple/float64(stallPicks))
				if 2*sOut.LongestStall >= stallPicks {
					tl.errs = append(tl.errs, fmt.Sprintf("%s: ends %s after %d picks without a new site, not below half of StallPicks %d", at, k, sOut.LongestStall, stallPicks))
				}
			}
			tl.paths[a.path] = pt
		}
		return tl
	})
	if err != nil {
		t.Fatal(err)
	}
	total := map[string]pathTally{}
	for _, tl := range tallies {
		for p, pt := range tl.paths {
			sum := total[p]
			sum.attempts += pt.attempts
			sum.stalled += pt.stalled
			sum.worst = max(sum.worst, pt.worst)
			total[p] = sum
		}
		for _, e := range tl.errs {
			t.Error(e)
		}
	}
	for _, p := range []string{"window-0", "later-window", "compound"} {
		pt := total[p]
		t.Logf("%s: %d attempts, %d cut by the stall rule; runs ending ok or check go at most %.3f× the fault-free picks without a new site",
			p, pt.attempts, pt.stalled, pt.worst)
		if pt.stalled == 0 {
			t.Errorf("no %s replay was cut by the stall rule: the comparison never saw a cut hang on that path", p)
		}
	}
}

// TestStallStopsHungReplay replays a CA1&2 attempt that hangs — the kernel
// drops cass2's second message at node.go:104, and the gossip, dispatcher
// and heartbeat daemons keep the scheduler busy — and checks that the stall
// rule stops the replay well before the clock budget it runs to without the
// rule.
func TestStallStopsHungReplay(t *testing.T) {
	events, err := sim.ParseScenario("site=apps/cassandra/node.go:104,occ=2,when=before,action=kernel-drop")
	if err != nil {
		t.Fatal(err)
	}
	tg := NewTriggerer(cassandra.New(), 1)
	out, _, _ := replayOutcome(tg, events, nil, "")
	stallPicks := tg.stallPicks
	if out.FailureKind() != "hang" {
		t.Fatalf("replay under the stall rule ends in %q, want hang", out.FailureKind())
	}
	if stallPicks <= 0 || !cutByStall(out, stallPicks) || out.Steps >= 50_000 {
		t.Fatalf("replay under the stall rule: StepBudgetHit=%v Picks=%d LongestStall=%d (StallPicks %d) Steps=%d, want a stall cut before the 50 000-tick clock budget",
			out.StepBudgetHit, out.Picks, out.LongestStall, stallPicks, out.Steps)
	}
	t.Logf("cut by the stall rule after %d picks (StallPicks %d)", out.Picks, stallPicks)

	withoutStallRule(tg)
	free, _, _ := replayOutcome(tg, events, nil, "")
	if !free.StepBudgetHit || free.Steps < 50_000 || free.Picks <= out.Picks {
		t.Fatalf("replay under the clock budget alone: StepBudgetHit=%v Steps=%d Picks=%d, want the clock budget after more than %d picks",
			free.StepBudgetHit, free.Steps, free.Picks, out.Picks)
	}
}
