package inject

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/toy"
	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/parallel"
	"fcatch/internal/sim"
)

// randomCounts is what a Section 8.3 random-injection campaign reports.
type randomCounts struct {
	Workload    string
	Runs        int
	FailureRuns int
	Failures    map[string]int
}

// referenceRandomCampaign is a direct implementation of the Section 8.3
// baseline — draw every crash step from the seeded RNG, run, fingerprint the
// failures — independent of the campaign engine. It is the parity oracle:
// the engine's `random` strategy must reproduce its counts exactly. It
// judges runs itself, not through core.Run or sim.Outcome.Failed.
func referenceRandomCampaign(w core.Workload, runs int, seed int64, parallelism int) (*randomCounts, error) {
	// judge fails a run that hung, logged a fatal or threw an uncaught
	// exception, and otherwise asks the workload's checker.
	judge := func(c *sim.Cluster, out *sim.Outcome) bool {
		if !out.Completed() || len(out.FatalLogs) > 0 || len(out.UncaughtExceptions) > 0 {
			return true
		}
		out.CheckErr = w.Check(c)
		return out.CheckErr != nil
	}
	cfg := sim.Config{Seed: seed, Tracing: sim.TraceOff}
	w.Tune(&cfg)
	c := sim.NewCluster(cfg)
	w.Configure(c)
	base := c.Run()
	if judge(c, base) {
		return nil, fmt.Errorf("inject: fault-free run of %s incorrect: %+v", w.Name(), base)
	}

	rng := rand.New(rand.NewSource(seed * 7919))
	steps := make([]int64, runs)
	for i := range steps {
		steps[i] = 1 + rng.Int63n(base.Steps)
	}

	sigs, _ := parallel.Map(context.Background(), parallelism, runs, func(i int) string {
		plan := sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: steps[i]}}, w.CrashTarget(), w.RestartRoles())
		rcfg := sim.Config{Seed: seed, Tracing: sim.TraceOff, Plan: plan}
		w.Tune(&rcfg)
		rc := sim.NewCluster(rcfg)
		w.Configure(rc)
		if out := rc.Run(); judge(rc, out) {
			if sig := campaign.Symptom(out); !core.Expected(w, sig) {
				return sig
			}
		}
		return ""
	})

	res := &randomCounts{Workload: w.Name(), Runs: runs, Failures: map[string]int{}}
	for _, sig := range sigs {
		if sig != "" {
			res.FailureRuns++
			res.Failures[sig]++
		}
	}
	return res, nil
}

// TestRandomCampaignMatchesReference: the campaign engine's `random` strategy
// must equal the reference implementation exactly — same failure runs, same
// signature multiset — at sequential and maximal parallelism.
func TestRandomCampaignMatchesReference(t *testing.T) {
	workloads := []core.Workload{toy.New(), mapreduce.NewMR1()}
	for _, w := range workloads {
		for _, par := range []int{1, 0} {
			want, err := referenceRandomCampaign(w, 60, 3, par)
			if err != nil {
				t.Fatalf("%s: reference: %v", w.Name(), err)
			}
			res, err := campaign.Run(context.Background(), w, campaign.Config{
				Strategy: campaign.StrategyRandom, Seed: 3, Budget: 60, Parallelism: par,
			}, nil, nil)
			if err != nil {
				t.Fatalf("%s: engine: %v", w.Name(), err)
			}
			got := &randomCounts{res.Workload, res.Runs, res.FailureRuns, res.Failures}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s (parallelism %d): engine diverges from reference:\n got: %+v\nwant: %+v",
					w.Name(), par, got, want)
			}
		}
	}
}
