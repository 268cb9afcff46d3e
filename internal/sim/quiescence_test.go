package sim_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"fcatch/internal/apps/cassandra"
	"fcatch/internal/apps/hbase"
	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/zookeeper"
	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/inject"
	"fcatch/internal/parallel"
	"fcatch/internal/sim"
)

// quiescenceWorkloads are the six Table 1 workloads.
var quiescenceWorkloads = []func() core.Workload{
	func() core.Workload { return cassandra.New() },
	func() core.Workload { return hbase.NewHB1() },
	func() core.Workload { return hbase.NewHB2() },
	func() core.Workload { return mapreduce.NewMR1() },
	func() core.Workload { return mapreduce.NewMR2() },
	func() core.Workload { return zookeeper.New() },
}

// pipelineOutput runs detection on one observation and triggers every report
// and compound finding, rendering everything a user sees of the result:
// report keys, the accepted runs' picks, and each verdict with its failure
// kind, detail and per-action matrix.
func pipelineOutput(w core.Workload, scenario string, seed int64) string {
	opts := core.DefaultOptions()
	opts.Seed = seed
	if scenario != "" {
		sc, err := sim.ParseScenario(scenario)
		if err != nil {
			return err.Error()
		}
		opts.Scenario = sc
	}
	res, err := core.Detect(w, opts)
	if err != nil {
		return "detect: " + err.Error()
	}
	var b strings.Builder
	ob := res.Observation
	fmt.Fprintf(&b, "fault-free %d picks, faulty %d picks, firings %+v\n",
		ob.FaultFreeOutcome.Picks, ob.FaultyOutcome.Picks, ob.FaultFirings)
	for _, rep := range res.Reports {
		fmt.Fprintln(&b, rep.String())
	}
	tg := inject.NewTriggerer(w, seed)
	tg.Parallelism = 1
	for _, o := range tg.TriggerAll(res.Reports) {
		fmt.Fprintf(&b, "%s -> %v %s (%s) %v\n", o.Report.Key(), o.Class, o.FailureKind, o.Detail, o.ByAction)
	}
	for _, cr := range res.Compound {
		o := tg.TriggerCompound(cr)
		fmt.Fprintf(&b, "%s -> %v %s (%s) via %s %s\n", cr.Key(), o.Class, o.FailureKind, o.Detail, o.Variant, sim.FormatScenario(o.Scenario))
	}
	return b.String()
}

// campaignOutput is one campaign's corpus, as saved.
func campaignOutput(w core.Workload, cfg campaign.Config) string {
	cfg.Parallelism = 1
	res, err := campaign.Run(context.Background(), w, cfg, nil, nil)
	if err != nil {
		return "campaign: " + err.Error()
	}
	data, err := json.Marshal(res.Corpus)
	if err != nil {
		return "corpus: " + err.Error()
	}
	return string(data)
}

// TestQuiescenceRuleIsExact: the quiescence rule cuts hung runs short, and a
// quiescent run's blocked threads keep their sites, so no output may move.
// Detection and triggering on the default and composite observations, and
// campaign corpora for every strategy (plus MR1's composite-scenario
// campaign), are byte-identical with the rule on and off. -short keeps seed 1
// only.
func TestQuiescenceRuleIsExact(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	type job struct {
		label string
		out   func() string
	}
	var jobs []job
	composites := []struct {
		w        func() core.Workload
		scenario string
	}{
		{func() core.Workload { return mapreduce.NewMR1() }, "site=sim/rpc.go:client-wait,occ=1,when=before,restart=40;delay=48"},
		{func() core.Workload { return hbase.NewHB1() }, "site=apps/hbase/master096.go:202,occ=1,when=before,restart=150;" +
			"site=apps/hbase/master096.go:240,occ=1,when=before,action=kernel-drop"},
		{func() core.Workload { return cassandra.New() }, "step=120,restart=40;delay=100,restart=40"},
		{func() core.Workload { return zookeeper.New() }, "step=120,restart=40;delay=100,restart=40"},
	}
	for _, seed := range seeds {
		for _, mk := range quiescenceWorkloads {
			jobs = append(jobs, job{fmt.Sprintf("%s seed %d", mk().Name(), seed),
				func() string { return pipelineOutput(mk(), "", seed) }})
		}
		for _, o := range composites {
			jobs = append(jobs, job{fmt.Sprintf("%s %q seed %d", o.w().Name(), o.scenario, seed),
				func() string { return pipelineOutput(o.w(), o.scenario, seed) }})
		}
		if seed > 2 {
			continue
		}
		for _, strat := range campaign.StrategyNames() {
			for _, mk := range quiescenceWorkloads {
				cfg := campaign.Config{Strategy: strat, Seed: seed, Budget: 40}
				jobs = append(jobs, job{fmt.Sprintf("%s %s campaign seed %d", mk().Name(), strat, seed),
					func() string { return campaignOutput(mk(), cfg) }})
			}
		}
		cfg := campaign.Config{Seed: seed, Budget: 60, Scenarios: []string{campaign.ScenarioRecoveryCrash, campaign.ScenarioCrashDrop}}
		jobs = append(jobs, job{fmt.Sprintf("MR1 composite campaign seed %d", seed),
			func() string { return campaignOutput(mapreduce.NewMR1(), cfg) }})
	}
	runAll := func() []string {
		outs, err := parallel.Map(context.Background(), 0, len(jobs), func(i int) string { return jobs[i].out() })
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	withRule := runAll()
	restore := sim.SetQuietShare(0)
	withoutRule := runAll()
	restore()
	for i, j := range jobs {
		if withRule[i] != withoutRule[i] {
			t.Errorf("%s: output differs with the quiescence rule:\n on: %s\noff: %s", j.label, withRule[i], withoutRule[i])
		}
	}
}
