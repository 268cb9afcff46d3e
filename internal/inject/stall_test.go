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
	"fcatch/internal/trace"
)

// replayOutcome is replay, returning the run's outcome beside its verdict. An
// empty readSite folds as compound replays do: into nothing.
func replayOutcome(tg *Triggerer, events []sim.FaultSpec, restart map[string]int64, readSite string) (*sim.Outcome, Classification, string) {
	var fold *handledExcFold
	if readSite != "" {
		fold = &handledExcFold{site: readSite}
	}
	cfg := tg.replayConfig(events, restart)
	cfg.Fold = fold
	_, out := core.Run(tg.W, cfg)
	cls, kind, _ := tg.classify(out, fold)
	return out, cls, kind
}

// withoutStallRule makes tg's replays run without the stall rule, under the
// workload's clock budget and the simulator's quiescence rule, and returns
// the StallPicks they would have run under.
func withoutStallRule(tg *Triggerer) (stallPicks int64) {
	stallPicks, tg.stallPicks = tg.StallPicks(), 0
	return stallPicks
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
		actions, restart := []string{trace.ActionNodeCrash}, w.RestartRoles()
		if rep.Type == detect.CrashRegular {
			actions, restart = trace.ActionNames(), nil
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

// TestStallCutsOnlyHangs replays every trigger attempt with and without the
// stall rule (the clock budget and the quiescence rule apply to both): the
// six workloads' default single-fault observations, MR1's
// crash+recovery-crash and HB1's crash+drop composite observations
// (compound_test.go's), and a two-crash observation of CA1&2 and ZK.
// Later-window reports replay their prefix faults; compound reports replay
// every recovery-policy variant TriggerCompound tries. The two must agree on
// every verdict and failure kind, every path must see the rule cut a hang,
// and no run that ends ok or check may go half its StallPicks without a new
// site, nor stay quiescent for half the quiescence budget the stall rule
// gives it (StallPicks/3 when that is below MaxSteps/5) — the margins
// stallMultiple and that budget are chosen for are pinned here, not assumed.
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
		worstQuiet        float64 // longest quiescent stretch in a run ending ok or check, in quiescence budgets
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
		ruledCfg := ruled.replayConfig(nil, nil)
		w.Tune(&ruledCfg)
		quietPicks := ruledCfg.QuietPicks()
		for _, a := range budgetAttempts(w, res) {
			sOut, sCls, sKind := replayOutcome(ruled, a.events, a.restart, a.readSite)
			_, fCls, fKind := replayOutcome(free, a.events, a.restart, a.readSite)
			pt := tl.paths[a.path]
			pt.attempts++
			if sOut.Stop == sim.StopStall {
				pt.stalled++
			}
			at := fmt.Sprintf("%s seed %d %s %s", w.Name(), seed, a.path, a.label)
			if sCls != fCls || sKind != fKind {
				tl.errs = append(tl.errs, fmt.Sprintf("%s: stall rule %v %q, without it %v %q", at, sCls, sKind, fCls, fKind))
			}
			if k := sOut.FailureKind(); k == "ok" || k == "check" {
				pt.worst = max(pt.worst, float64(sOut.LongestStall)*stallMultiple/float64(stallPicks))
				if 2*sOut.LongestStall >= stallPicks {
					tl.errs = append(tl.errs, fmt.Sprintf("%s: ends %s after %d picks without a new site, not below half of StallPicks %d", at, k, sOut.LongestStall, stallPicks))
				}
				pt.worstQuiet = max(pt.worstQuiet, float64(sOut.LongestQuiet)/float64(quietPicks))
				if 2*sOut.LongestQuiet >= quietPicks {
					tl.errs = append(tl.errs, fmt.Sprintf("%s: ends %s after %d quiescent picks, not below half of the quiescence budget %d", at, k, sOut.LongestQuiet, quietPicks))
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
			sum.worstQuiet = max(sum.worstQuiet, pt.worstQuiet)
			total[p] = sum
		}
		for _, e := range tl.errs {
			t.Error(e)
		}
	}
	for _, p := range []string{"window-0", "later-window", "compound"} {
		pt := total[p]
		t.Logf("%s: %d attempts, %d cut by the stall rule; runs ending ok or check go at most %.3f× the fault-free picks without a new site and stay quiescent at most %.3f× the quiescence budget",
			p, pt.attempts, pt.stalled, pt.worst, pt.worstQuiet)
		if pt.stalled == 0 {
			t.Errorf("no %s replay was cut by the stall rule: the comparison never saw a cut hang on that path", p)
		}
	}
}

// TestStallStopsHungReplay replays three attempts that hang and checks which
// rule stops each, well before the clock budget, with the verdict the replay
// gets without the stall rule.
//   - MR1, the kernel drops a task's RPC reply: am#1/main polls and rm#1/main
//     sits in a timed job-finished wait while the status-poller daemon, and
//     the RPC handlers serving it, keep the scheduler busy. Under the stall
//     rule a timed wait counts as waiting, so the run is quiescent and the
//     quiescence rule ends it after StallPicks/3 quiescent picks; without
//     the stall rule the timed wait keeps it from being quiescent, and the
//     clock budget ends it.
//   - HB2, the kernel drops the root-opened message at rs090.go:57: the
//     client retries its timed-out Put, sleeping between attempts, so the
//     run is never quiescent for long, and only the stall rule stops it
//     (without it, the clock budget does).
//   - CA1&2, the kernel drops cass2's second message at node.go:104: every
//     non-daemon thread waits on a latch or polls while the gossip,
//     dispatcher and heartbeat daemons keep the scheduler busy, so the run is
//     quiescent, and under the stall rule the quiescence rule ends it after
//     StallPicks/3 quiescent picks, before the stall rule would (without the
//     stall rule it ends quiescent too, after MaxSteps/5).
func TestStallStopsHungReplay(t *testing.T) {
	cases := []struct {
		w               func() core.Workload
		scenario        string
		stop, stopAlone string // Outcome.Stop with and without the stall rule
	}{
		{func() core.Workload { return mapreduce.NewMR1() }, "site=sim/rpc.go:reply-send,occ=28,when=before,action=kernel-drop",
			sim.StopQuiescent, sim.StopBudget},
		{func() core.Workload { return hbase.NewHB2() }, "site=apps/hbase/rs090.go:57,occ=1,when=before,action=kernel-drop",
			sim.StopStall, sim.StopBudget},
		{func() core.Workload { return cassandra.New() }, "site=apps/cassandra/node.go:104,occ=2,when=before,action=kernel-drop",
			sim.StopQuiescent, sim.StopQuiescent},
	}
	for _, tc := range cases {
		w := tc.w()
		events, err := sim.ParseScenario(tc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		tg := NewTriggerer(w, 1)
		out, cls, kind := replayOutcome(tg, events, nil, "")
		cfg := tg.replayConfig(nil, nil)
		w.Tune(&cfg)
		if kind != "hang" || out.Stop != tc.stop || out.Steps >= cfg.MaxSteps {
			t.Fatalf("%s %s under the stall rule: %q, Stop=%q Picks=%d LongestStall=%d LongestQuiet=%d (StallPicks %d) Steps=%d, want a hang stopped by %q before the %d-tick clock budget",
				w.Name(), tc.scenario, kind, out.Stop, out.Picks, out.LongestStall, out.LongestQuiet, cfg.StallPicks, out.Steps, tc.stop, cfg.MaxSteps)
		}
		if tc.stop == sim.StopQuiescent && out.LongestQuiet != cfg.QuietPicks() {
			t.Fatalf("%s %s: cut after %d quiescent picks, want StallPicks/3 = %d", w.Name(), tc.scenario, out.LongestQuiet, cfg.QuietPicks())
		}
		t.Logf("%s: stopped %s after %d picks (StallPicks %d)", w.Name(), out.Stop, out.Picks, cfg.StallPicks)

		withoutStallRule(tg)
		alone, aloneCls, aloneKind := replayOutcome(tg, events, nil, "")
		if aloneCls != cls || aloneKind != kind || alone.Stop != tc.stopAlone || alone.Picks <= out.Picks {
			t.Fatalf("%s %s without the stall rule: %v %q, Stop=%q Steps=%d Picks=%d, want %v %q stopped by %q after more than %d picks",
				w.Name(), tc.scenario, aloneCls, aloneKind, alone.Stop, alone.Steps, alone.Picks, cls, kind, tc.stopAlone, out.Picks)
		}
		t.Logf("%s: stopped %s after %d picks without the stall rule", w.Name(), alone.Stop, alone.Picks)
	}
}
