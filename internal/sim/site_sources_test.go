package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"fcatch/internal/apps/cassandra"
	"fcatch/internal/apps/hbase"
	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/zookeeper"
	"fcatch/internal/core"
	"fcatch/internal/sim"
)

// TestCallsiteSourcesAgree is the differential test that keeps the two PC
// sources interchangeable: on every Table 1 workload, a traced fault-free run
// and a run with a crash anchored at one of its op sites must produce the
// same trace bytes and the same outcome whether op sites come from the
// frame-pointer chain or from runtime.Callers. On ports that select the
// portable source the two passes coincide and the test is trivially green.
func TestCallsiteSourcesAgree(t *testing.T) {
	for _, w := range []core.Workload{
		cassandra.New(), hbase.NewHB1(), hbase.NewHB2(),
		mapreduce.NewMR1(), mapreduce.NewMR2(), zookeeper.New(),
	} {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			run := func(plan *sim.FaultPlan) (*sim.Cluster, *sim.Outcome, []byte) {
				cfg := sim.Config{Seed: 1, Tracing: sim.TraceSelective, TraceTickCost: 1, Plan: plan}
				w.Tune(&cfg)
				c := sim.NewCluster(cfg)
				w.Configure(c)
				out := c.Run()
				// Elapsed is wall-clock, the one legitimately varying field.
				out.Elapsed = 0
				var buf bytes.Buffer
				if err := c.Trace().Encode(&buf); err != nil {
					t.Fatal(err)
				}
				return c, out, buf.Bytes()
			}
			// The pair of runs under one PC source; the faulty run crashes
			// whichever node executes the first sited op past the middle of
			// the fault-free trace, the first time it gets there.
			pair := func() (outs [2]*sim.Outcome, traces [2][]byte) {
				c, out, enc := run(nil)
				outs[0], traces[0] = out, enc
				tr := c.Trace()
				var site string
				for i := len(tr.Records) / 2; i < len(tr.Records) && site == ""; i++ {
					site = tr.Str(tr.Records[i].Site)
				}
				if site == "" {
					t.Fatal("fault-free trace has no site to anchor the fault at")
				}
				_, outs[1], traces[1] = run(sim.NewScenarioPlan([]sim.FaultSpec{{
					Site: site, Occurrence: 1, When: sim.WhenBefore, Action: sim.ActionNodeCrash,
				}}, w.RestartRoles()))
				if len(outs[1].FaultFirings) != 1 {
					t.Fatalf("fault anchored at %s fired %d times, want 1", site, len(outs[1].FaultFirings))
				}
				return outs, traces
			}

			selOuts, selTraces := pair()
			restore := sim.UsePortableCallers()
			portOuts, portTraces := pair()
			restore()

			for i, name := range []string{"fault-free", "faulty"} {
				if !bytes.Equal(selTraces[i], portTraces[i]) {
					t.Errorf("%s run: FCT2 bytes differ between PC sources (%d vs %d bytes)",
						name, len(selTraces[i]), len(portTraces[i]))
				}
				if !reflect.DeepEqual(selOuts[i], portOuts[i]) {
					t.Errorf("%s run: outcomes differ between PC sources:\n selected %+v\n portable %+v",
						name, selOuts[i], portOuts[i])
				}
			}
		})
	}
}
