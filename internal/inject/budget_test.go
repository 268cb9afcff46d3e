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

// TestPickBudgetCutsOnlyHangs replays every trigger attempt with the pick
// budget and under the clock budget alone: the six workloads' default
// single-fault observations, MR1's crash+recovery-crash and HB1's
// crash+drop composite observations (compound_test.go's), and a two-crash
// observation of CA1&2 and ZK. Later-window reports replay their prefix
// faults; compound reports replay every recovery-policy variant
// TriggerCompound tries. The two must agree on every verdict and
// failure kind, and no attempt that completes unbudgeted may come within
// 15 % of the budget — the margin hangPicks is chosen for is pinned here,
// not assumed.
func TestPickBudgetCutsOnlyHangs(t *testing.T) {
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
		attempts, hung int
		worst          float64 // largest completing picks / fault-free picks
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
		budgeted, free := NewTriggerer(w, seed), NewTriggerer(w, seed)
		ffPicks := withoutPickBudget(free)
		for _, a := range budgetAttempts(w, res) {
			bOut, bCls, bKind := replayOutcome(budgeted, a.events, a.restart, a.readSite)
			fOut, fCls, fKind := replayOutcome(free, a.events, a.restart, a.readSite)
			pt := tl.paths[a.path]
			pt.attempts++
			if bOut.StepBudgetHit && bOut.Picks == hangPicks*ffPicks {
				pt.hung++
			}
			at := fmt.Sprintf("%s seed %d %s %s", w.Name(), seed, a.path, a.label)
			if bCls != fCls || bKind != fKind {
				tl.errs = append(tl.errs, fmt.Sprintf("%s: budgeted %v %q, unbudgeted %v %q", at, bCls, bKind, fCls, fKind))
			}
			if !fOut.StepBudgetHit {
				x := float64(fOut.Picks) / float64(ffPicks)
				pt.worst = max(pt.worst, x)
				if x > 0.85*hangPicks {
					tl.errs = append(tl.errs, fmt.Sprintf("%s: completes after %.2f× the fault-free picks, within 15%% of the %d× budget", at, x, hangPicks))
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
			sum.hung += pt.hung
			sum.worst = max(sum.worst, pt.worst)
			total[p] = sum
		}
		for _, e := range tl.errs {
			t.Error(e)
		}
	}
	for _, p := range []string{"window-0", "later-window", "compound"} {
		pt := total[p]
		if pt.attempts == 0 {
			t.Errorf("no %s replays: the observations no longer exercise that path", p)
			continue
		}
		t.Logf("%s: %d attempts, %d cut by the pick budget; completing attempts use at most %.2f× the fault-free picks",
			p, pt.attempts, pt.hung, pt.worst)
	}
	if total["window-0"].hung == 0 {
		t.Fatal("no attempt hit the pick budget; the comparison never saw a cut hang")
	}
}

// TestPickBudgetStopsHungReplay replays a CA1&2 attempt that hangs — the
// kernel drops cass2's second message at node.go:104, and the gossip,
// dispatcher and heartbeat daemons keep the scheduler busy — and checks that
// the replay stops at its pick budget, well before the clock budget it ran to
// without one.
func TestPickBudgetStopsHungReplay(t *testing.T) {
	events, err := sim.ParseScenario("site=apps/cassandra/node.go:104,occ=2,when=before,action=kernel-drop")
	if err != nil {
		t.Fatal(err)
	}
	tg := NewTriggerer(cassandra.New(), 1)
	out, _, _ := replayOutcome(tg, events, nil, "")
	if tg.maxPicks <= 0 || !out.StepBudgetHit || out.Picks != tg.maxPicks || out.Steps >= 50_000 {
		t.Fatalf("budgeted replay: StepBudgetHit=%v Picks=%d (MaxPicks %d) Steps=%d, want a stop at MaxPicks before the 50 000-tick clock budget",
			out.StepBudgetHit, out.Picks, tg.maxPicks, out.Steps)
	}
	if out.FailureKind() != "hang" {
		t.Fatalf("budgeted replay ends in %q, want hang", out.FailureKind())
	}

	withoutPickBudget(tg)
	free, _, _ := replayOutcome(tg, events, nil, "")
	if !free.StepBudgetHit || free.Steps < 50_000 || free.Picks <= out.Picks {
		t.Fatalf("unbudgeted replay: StepBudgetHit=%v Steps=%d Picks=%d, want the clock budget after more than %d picks",
			free.StepBudgetHit, free.Steps, free.Picks, out.Picks)
	}
}
