package core_test

import (
	"testing"

	"fcatch/internal/apps/cassandra"
	"fcatch/internal/apps/hbase"
	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/zookeeper"
	"fcatch/internal/core"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

func allWorkloads() []core.Workload {
	return []core.Workload{
		cassandra.New(), hbase.NewHB1(), hbase.NewHB2(),
		mapreduce.NewMR1(), mapreduce.NewMR2(), zookeeper.New(),
	}
}

// TestCheckpointPairPropertyAllWorkloads verifies the substitution that
// stands in for the paper's VM checkpointing on every benchmark: the
// fault-free and faulty traces must agree record-for-record up to the crash
// step (identical prefix, identical resource IDs).
func TestCheckpointPairPropertyAllWorkloads(t *testing.T) {
	for _, w := range allWorkloads() {
		t.Run(w.Name(), func(t *testing.T) {
			obs, err := core.Observe(w, core.DefaultOptions())
			if err != nil {
				t.Fatalf("Observe: %v", err)
			}
			tf, ty := obs.FaultFree, obs.Faulty
			crash := crashRecord(ty)
			if crash == nil || crash.TS <= 0 {
				t.Fatalf("faulty run lacks a crash record: %v", crash)
			}
			shared := 0
			for i := 0; i < tf.Len() && i < ty.Len(); i++ {
				a, b := &tf.Records[i], &ty.Records[i]
				if a.TS >= crash.TS || b.TS >= crash.TS {
					break
				}
				if a.Kind != b.Kind || tf.Str(a.Res) != ty.Str(b.Res) || tf.Str(a.PID) != ty.Str(b.PID) || tf.Str(a.Site) != ty.Str(b.Site) || a.Src != b.Src {
					t.Fatalf("prefix diverges at record %d:\n  fault-free: %s\n  faulty:     %s",
						i, tf.Format(a), ty.Format(b))
				}
				shared++
			}
			if shared == 0 {
				t.Fatal("no shared prefix")
			}
		})
	}
}

// TestObservationRunsAreCorrect: both observed runs must pass the workload's
// correctness oracle — FCatch predicts bugs from correct executions only.
func TestObservationRunsAreCorrect(t *testing.T) {
	for _, w := range allWorkloads() {
		t.Run(w.Name(), func(t *testing.T) {
			obs, err := core.Observe(w, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if obs.FaultFreeOutcome.Failed() {
				t.Errorf("fault-free outcome failed: %+v", obs.FaultFreeOutcome)
			}
			if obs.FaultyOutcome.Failed() {
				t.Errorf("faulty outcome failed: %+v", obs.FaultyOutcome)
			}
		})
	}
}

// TestDetectionDeterministicAllWorkloads: two identical detection passes
// must produce identical report lists.
func TestDetectionDeterministicAllWorkloads(t *testing.T) {
	for _, w := range allWorkloads() {
		t.Run(w.Name(), func(t *testing.T) {
			a, err := core.Detect(w, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			b, err := core.Detect(w, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Reports) != len(b.Reports) {
				t.Fatalf("report counts differ: %d vs %d", len(a.Reports), len(b.Reports))
			}
			for i := range a.Reports {
				if a.Reports[i].Key() != b.Reports[i].Key() {
					t.Fatalf("report %d differs:\n  %s\n  %s", i, a.Reports[i], b.Reports[i])
				}
				if a.Reports[i].W.Occurrence != b.Reports[i].W.Occurrence {
					t.Fatalf("report %d occurrence differs", i)
				}
			}
		})
	}
}

// TestPrunedNeverOverlapsReported: a pruned candidate's resource class must
// not also be reported (disabling pruning only ever adds reports; it cannot
// both prune and report the same deduplicated candidate).
func TestPhaseOptionsMoveTheCrash(t *testing.T) {
	w := mapreduce.NewMR1()
	steps := map[core.Phase]int64{}
	for _, ph := range []core.Phase{core.PhaseBegin, core.PhaseMiddle, core.PhaseEnd} {
		opts := core.Options{Seed: 1, Phase: ph, Tracing: sim.TraceSelective}
		obs, err := core.Observe(w, opts)
		if err != nil {
			t.Fatalf("phase %s: %v", ph, err)
		}
		steps[ph] = crashRecord(obs.Faulty).TS
	}
	if !(steps[core.PhaseBegin] < steps[core.PhaseMiddle] && steps[core.PhaseMiddle] < steps[core.PhaseEnd]) {
		t.Fatalf("crash steps not ordered: %v", steps)
	}
}

// TestSelectiveTracingOmitsPlainHeapOps: heap accesses outside handlers must
// not be traced (the policy that creates the paper's §8.3 false negative),
// while the same accesses under exhaustive tracing are.
func TestSelectiveTracingOmitsPlainHeapOps(t *testing.T) {
	build := func(mode sim.TracingMode) int {
		c := sim.NewCluster(sim.Config{Seed: 1, Tracing: mode})
		c.StartProcess("n", "m0", func(ctx *sim.Context) {
			obj := ctx.NamedObject("o")
			for i := 0; i < 10; i++ {
				obj.Set(ctx, "plain", sim.V(i)) // plain thread: selective skips it
			}
		})
		c.Run()
		n := 0
		for i := range c.Trace().Records {
			if c.Trace().Records[i].Kind == trace.KHeapWrite {
				n++
			}
		}
		return n
	}
	if n := build(sim.TraceSelective); n != 0 {
		t.Errorf("selective tracing recorded %d plain heap writes, want 0", n)
	}
	if n := build(sim.TraceExhaustive); n != 10 {
		t.Errorf("exhaustive tracing recorded %d heap writes, want 10", n)
	}
}

// TestHandlerHeapOpsAreTraced: the same write inside an RPC handler is
// traced under the selective policy.
func TestHandlerHeapOpsAreTraced(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective, RPCFailFast: true})
	c.StartProcess("srv", "m0", func(ctx *sim.Context) {
		ctx.Self().HandleRPC("Touch", func(ctx *sim.Context, args []sim.Value) sim.Value {
			ctx.NamedObject("o").Set(ctx, "f", args[0])
			return sim.V("ok")
		})
		ctx.Sleep(200)
	})
	c.StartProcess("cli", "m1", func(ctx *sim.Context) {
		_, _ = ctx.Call("srv", "Touch", sim.V(1))
	})
	c.Run()
	found := false
	for i := range c.Trace().Records {
		r := &c.Trace().Records[i]
		if r.Kind == trace.KHeapWrite && r.HasFlag(trace.FlagHandlerCtx) {
			found = true
		}
	}
	if !found {
		t.Fatal("handler heap write not traced under selective policy")
	}
}
