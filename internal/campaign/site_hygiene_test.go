package campaign

import (
	"strings"
	"testing"

	"fcatch/internal/apps/cassandra"
	"fcatch/internal/apps/hbase"
	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/zookeeper"
	"fcatch/internal/core"
	"fcatch/internal/sim"
)

// TestSiteStringsAreSourceIndependent: a site is hashed into coverage
// signatures and written into corpora, so it may only be an application
// source position, a declared pseudo-site, "plan" or "unknown" — never a
// position inside the Go runtime or standard library, which moves with the
// host architecture and the Go release. Injection runs are where substrate
// handlers with no application frame above them fire (the ZooKeeper
// substrate's session-expire event after a crash), so the check replays each
// workload's first ten coverage-guided plans with records retained.
func TestSiteStringsAreSourceIndependent(t *testing.T) {
	allowed := map[string]bool{
		"plan": true, "unknown": true,
		sim.SiteRPCClientWait: true, sim.SiteRPCReplySig: true, sim.SiteRPCReplySend: true,
	}
	for _, w := range []core.Workload{
		cassandra.New(), hbase.NewHB1(), hbase.NewHB2(),
		mapreduce.NewMR1(), mapreduce.NewMR2(), zookeeper.New(),
	} {
		res, err := run(w, Config{Strategy: StrategyCoverage, Seed: 1, Budget: 10})
		if err != nil {
			t.Fatal(err)
		}
		bad := map[string]string{} // site -> first plan that reached it
		for _, e := range res.Corpus.Entries {
			c, _ := core.Run(w, sim.Config{Seed: 1, Tracing: sim.TraceSelective,
				Plan: e.Plan.simPlan(w.CrashTarget(), w.RestartRoles())})
			tr := c.Trace()
			for i := range tr.Records {
				s := tr.Str(tr.Records[i].Site)
				if s != "" && !allowed[s] && !strings.HasPrefix(s, "apps/") && bad[s] == "" {
					bad[s] = e.Plan.Key()
				}
			}
		}
		for s, plan := range bad {
			t.Errorf("%s: site %q (plan %s) is not an application position or a declared pseudo-site", w.Name(), s, plan)
		}
	}
}
