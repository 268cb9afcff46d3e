package sim_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"fcatch/internal/apps/cassandra"
	"fcatch/internal/apps/hbase"
	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/zookeeper"
	"fcatch/internal/core"
	"fcatch/internal/sim"
)

// TestSteadyStateStepZeroAllocs pins the scheduler's allocation contract: once
// a cluster is in steady state, one scheduler step (yield → pick → resume)
// allocates nothing. A cluster is single-use, so
// the test can't loop one step under testing.AllocsPerRun; instead it runs two
// clusters differing only in yield count and attributes the malloc delta to
// the extra steps.
func TestSteadyStateStepZeroAllocs(t *testing.T) {
	mallocsFor := func(yields int) uint64 {
		c := sim.NewCluster(sim.Config{Seed: 1, MaxSteps: int64(yields) + 1_000})
		c.StartProcess("node", "m0", func(ctx *sim.Context) {
			for i := 0; i < yields; i++ {
				ctx.Yield()
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocsFor(100) // warm the runtime (lazily grown internals)
	small := mallocsFor(1_000)
	large := mallocsFor(21_000)

	extra := int64(large) - int64(small)
	const steps = 20_000
	if perStep := float64(extra) / steps; perStep > 0.01 {
		t.Fatalf("steady-state stepping allocates: %d extra mallocs over %d extra steps (%.4f/step), want 0",
			extra, steps, perStep)
	}
}

// TestSpawnAllocatesOnlyTheThread pins the carrier contract: once idle
// carriers are warm, a spawned thread costs one allocation, its Thread — no
// goroutine, coroutine or channel of its own.
func TestSpawnAllocatesOnlyTheThread(t *testing.T) {
	child := func(ctx *sim.Context) { ctx.Yield() }
	allocsFor := func(children int) float64 {
		return testing.AllocsPerRun(5, func() {
			c := sim.NewCluster(sim.Config{Seed: 1})
			c.StartProcess("node", "m0", func(ctx *sim.Context) {
				for i := 0; i < children; i++ {
					ctx.Go("child", child)
				}
			})
			if out := c.Run(); !out.Completed {
				t.Fatalf("run did not complete: %+v", out.Hung)
			}
		})
	}
	// AllocsPerRun's own warm-up run fills the idle list; the childless run
	// takes the cluster's fixed cost out of the count.
	const children = 1_000
	if perChild := (allocsFor(children) - allocsFor(0)) / children; perChild > 1.1 {
		t.Fatalf("a spawned thread costs %.2f allocations, want 1 (its Thread)", perChild)
	}
}

// TestIdleCarriersStopGrowing: every run returns the carriers its threads
// took, so running the observation pairs of the six workloads a second time
// finds enough idle carriers and creates none.
func TestIdleCarriersStopGrowing(t *testing.T) {
	pass := func() {
		for _, w := range []core.Workload{
			cassandra.New(), hbase.NewHB1(), hbase.NewHB2(),
			mapreduce.NewMR1(), mapreduce.NewMR2(), zookeeper.New(),
		} {
			opts := core.Options{Seed: 1, Tracing: sim.TraceSelective, Parallelism: 1}
			if _, err := core.Observe(w, opts); err != nil {
				t.Fatalf("observe %s: %v", w.Name(), err)
			}
		}
	}
	pass()
	first := sim.IdleCarriers()
	if first == 0 {
		t.Fatal("no idle carriers after the first pass: runs kept theirs")
	}
	pass()
	if second := sim.IdleCarriers(); second > first {
		t.Fatalf("idle carriers grew from %d to %d on a repeated pass", first, second)
	}
}
