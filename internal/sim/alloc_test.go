package sim_test

import (
	"cmp"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"fcatch/internal/apps/cassandra"
	"fcatch/internal/apps/hbase"
	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/zookeeper"
	"fcatch/internal/core"
	"fcatch/internal/sim"
	"fcatch/internal/storage"
)

// mallocsPerOp measures what one call of op costs in mallocs once a cluster
// is in steady state. A cluster is single-use, so the test can't loop one op
// under testing.AllocsPerRun; instead it runs two clusters whose op loop
// differs only in how often it calls op and attributes the malloc delta to
// the extra calls. cfg configures the clusters (seed aside; its MaxSteps is
// the clock ticks one call may take, 4 if unset); inHandler runs the loop
// inside an event handler, where selective tracing records heap accesses.
// setup builds the cluster's substrates and returns op.
func mallocsPerOp(cfg sim.Config, inHandler bool, setup func(c *sim.Cluster) func(ctx *sim.Context)) float64 {
	perCall := cmp.Or(cfg.MaxSteps, 4)
	mallocsFor := func(calls int) uint64 {
		cfg := cfg
		cfg.Seed, cfg.MaxSteps = 1, perCall*int64(calls)+1_000
		if inHandler {
			// main waits on a latch with no timeout while a daemon handler
			// runs the loop, so the run is quiescent throughout, and the
			// quiescence rule allows it a fifth of the budget.
			cfg.MaxSteps *= 5
		}
		c := sim.NewCluster(cfg)
		op := setup(c)
		loop := func(ctx *sim.Context) {
			for i := 0; i < calls; i++ {
				op(ctx)
			}
		}
		c.StartProcess("node", "m0", func(ctx *sim.Context) {
			if !inHandler {
				loop(ctx)
				return
			}
			done := ctx.NewCond("done")
			ctx.Self().HandleEvent("ops", func(ctx *sim.Context, _ sim.Value) {
				loop(ctx)
				done.Signal(ctx)
			})
			ctx.Emit("ops", sim.Value{})
			done.Wait(ctx)
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if out := c.Run(); !out.Completed() {
			panic("mallocsPerOp: the op loop did not complete: " + out.Detail())
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocsFor(100) // warm the runtime (lazily grown internals)
	small := mallocsFor(1_000)
	large := mallocsFor(21_000)
	return float64(int64(large)-int64(small)) / 20_000
}

// TestSteadyStateStepZeroAllocs pins the scheduler's allocation contract: once
// a cluster is in steady state, one scheduler step (yield → pick → resume)
// allocates nothing.
func TestSteadyStateStepZeroAllocs(t *testing.T) {
	perStep := mallocsPerOp(sim.Config{}, false, func(*sim.Cluster) func(*sim.Context) {
		return func(ctx *sim.Context) { ctx.Yield() }
	})
	if perStep > 0.01 {
		t.Fatalf("steady-state stepping allocates %.4f mallocs/step, want 0", perStep)
	}
}

// TestOpBookkeepingZeroAllocs pins the op path's allocation contract: with
// tracing off, an op allocates nothing for its own bookkeeping — no escaping
// callbacks, scope closures or per-op resource names.
func TestOpBookkeepingZeroAllocs(t *testing.T) {
	val := sim.V("v")
	cases := []struct {
		name  string
		setup func(c *sim.Cluster) func(*sim.Context)
	}{
		{"Scope.End", func(*sim.Cluster) func(*sim.Context) {
			return func(ctx *sim.Context) { ctx.Scope("s").End() }
		}},
		{"KV.SetData", func(c *sim.Cluster) func(*sim.Context) {
			kv := storage.NewKV(c)
			kv.Seed("/z", val)
			return func(ctx *sim.Context) { _ = kv.SetData(ctx, "/z", val) }
		}},
		{"KV.GetData", func(c *sim.Cluster) func(*sim.Context) {
			kv := storage.NewKV(c)
			kv.Seed("/z", val)
			return func(ctx *sim.Context) { _, _ = kv.GetData(ctx, "/z") }
		}},
		{"GlobalFS.Write", func(*sim.Cluster) func(*sim.Context) {
			gfs := storage.NewGlobalFS()
			gfs.Seed("/d/f", val)
			return func(ctx *sim.Context) { gfs.Write(ctx, "/d/f", val) }
		}},
		{"GlobalFS.Read", func(*sim.Cluster) func(*sim.Context) {
			gfs := storage.NewGlobalFS()
			gfs.Seed("/d/f", val)
			return func(ctx *sim.Context) { _, _ = gfs.Read(ctx, "/d/f") }
		}},
		// The resource name, lfs:m0:/var/cassandra/saved_tokens, is longer
		// than a stack-built concatenation may be: it must not be built.
		{"LocalFS.Write", func(*sim.Cluster) func(*sim.Context) {
			lfs := storage.NewLocalFS()
			lfs.Seed("m0", "/var/cassandra/saved_tokens", val)
			return func(ctx *sim.Context) { lfs.Write(ctx, "/var/cassandra/saved_tokens", val) }
		}},
		{"LocalFS.Read", func(*sim.Cluster) func(*sim.Context) {
			lfs := storage.NewLocalFS()
			lfs.Seed("m0", "/var/cassandra/saved_tokens", val)
			return func(ctx *sim.Context) { _, _ = lfs.Read(ctx, "/var/cassandra/saved_tokens") }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if perOp := mallocsPerOp(sim.Config{}, false, tc.setup); perOp > 0.01 {
				t.Fatalf("%s allocates %.4f mallocs/op with tracing off, want 0", tc.name, perOp)
			}
		})
	}
	// A poll iteration (the condition found false, the polling bit the
	// quiescence rule counts, the sleep) allocates nothing: a sync loop that
	// polls three times costs what one that polls once costs.
	t.Run("SyncLoop poll", func(t *testing.T) {
		loop := func(polls int) func(*sim.Cluster) func(*sim.Context) {
			return func(*sim.Cluster) func(*sim.Context) {
				return func(ctx *sim.Context) {
					n := 0
					ctx.SyncLoop(sim.LoopOpts{Name: "poll", SleepTicks: 1}, func(*sim.Context) sim.Value {
						n++
						return sim.V(n > polls)
					})
				}
			}
		}
		cfg := sim.Config{MaxSteps: 16}
		if perPoll := (mallocsPerOp(cfg, false, loop(3)) - mallocsPerOp(cfg, false, loop(1))) / 2; perPoll > 0.01 {
			t.Fatalf("a poll iteration allocates %.4f mallocs with tracing off, want 0", perPoll)
		}
	})
}

// discard is a fold that keeps nothing. It reads dependences on the
// executions of site, none when site is "".
type discard struct{ site string }

func (discard) Fact(sim.Fact)     {}
func (d discard) DepSite() string { return d.site }

// TestFoldedOpsZeroAllocs pins the allocation contract of a run that keeps
// no trace. Under a fold that reads no dependences, and under one that reads
// them on a site the ops do not run at, handler-context heap accesses and a
// latch handing a heap read's value to a guarding waiter allocate nothing per
// op: no records, symbols, resource names or taint sets (an op away from the
// fold's site is numbered but hands no ID back). With tracing off, the first
// touch of a heap field allocates its slot and no resource name.
func TestFoldedOpsZeroAllocs(t *testing.T) {
	getSet := func(*sim.Cluster) func(*sim.Context) {
		var o *sim.Object
		return func(ctx *sim.Context) {
			if o == nil {
				o = ctx.NewObject("C")
			}
			o.Set(ctx, "f", o.Get(ctx, "f"))
		}
	}
	signalWait := func(*sim.Cluster) func(*sim.Context) {
		var o *sim.Object
		var cv *sim.Cond
		return func(ctx *sim.Context) {
			if cv == nil {
				o, cv = ctx.NewObject("C"), ctx.NewCond("cv")
			}
			cv.Signal(ctx, o.Get(ctx, "f"))
			got, _ := cv.Wait(ctx)
			ctx.Guard(got)
		}
	}
	for _, fold := range []discard{{}, {site: "elsewhere.go:1"}} {
		folded := sim.Config{Tracing: sim.TraceSelective, Fold: fold}
		for name, setup := range map[string]func(*sim.Cluster) func(*sim.Context){
			"Object.Get/Set": getSet, "Cond.Signal/Wait": signalWait,
		} {
			if perOp := mallocsPerOp(folded, true, setup); perOp > 0.01 {
				t.Errorf("%s in a handler allocates %.4f mallocs/op under a fold reading dependences on %q, want 0", name, perOp, fold.site)
			}
		}
	}

	fields := make([]string, 21_000)
	for i := range fields {
		fields[i] = "f" + strconv.Itoa(i)
	}
	val := sim.V("v")
	firstTouch := func(*sim.Cluster) func(*sim.Context) {
		var o *sim.Object
		next := 0
		return func(ctx *sim.Context) {
			if o == nil {
				o = ctx.NewObject("C")
			}
			o.Set(ctx, fields[next], val)
			next++
		}
	}
	if perOp := mallocsPerOp(sim.Config{}, false, firstTouch); perOp > 1.1 {
		t.Errorf("the first Set of a heap field allocates %.4f mallocs with tracing off, want 1 (its slot, no name)", perOp)
	}
}

// TestBuiltKeysZeroAllocs pins the key contract: a heap field, a named
// object or a named cond that already exists is found by the key its caller
// built, and the key is copied only when its slot is made. So an app key
// concatenated on every call, like "lastSeen-"+from, stays on the caller's
// stack, with tracing off and in a handler under a fold.
func TestBuiltKeysZeroAllocs(t *testing.T) {
	id := strconv.Itoa(7)
	cases := map[string]func(*sim.Cluster) func(*sim.Context){
		"Object.Get/Set": func(*sim.Cluster) func(*sim.Context) {
			var o *sim.Object
			return func(ctx *sim.Context) {
				if o == nil {
					o = ctx.NewObject("C")
				}
				o.Set(ctx, "field-"+id, o.Get(ctx, "field-"+id))
			}
		},
		"NamedObject": func(*sim.Cluster) func(*sim.Context) {
			return func(ctx *sim.Context) { ctx.NamedObject("task" + id) }
		},
		"NamedCond": func(*sim.Cluster) func(*sim.Context) {
			return func(ctx *sim.Context) { ctx.NamedCond("ready-" + id) }
		},
	}
	for name, setup := range cases {
		if perOp := mallocsPerOp(sim.Config{}, false, setup); perOp > 0.01 {
			t.Errorf("%s on a built key allocates %.4f mallocs/op with tracing off, want 0", name, perOp)
		}
		folded := sim.Config{Tracing: sim.TraceSelective, Fold: discard{}}
		if perOp := mallocsPerOp(folded, true, setup); perOp > 0.01 {
			t.Errorf("%s on a built key in a handler allocates %.4f mallocs/op under a fold, want 0", name, perOp)
		}
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
			if out := c.Run(); !out.Completed() {
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

// TestRPCRoundTripAllocatesOnlyItsCall pins the RPC path's allocation
// contract: with tracing off, a Call answered by a handler costs one
// allocation, its call record, which holds the reply latch, up to two
// arguments and the handler thread. A call with more arguments adds one for
// them.
func TestRPCRoundTripAllocatesOnlyItsCall(t *testing.T) {
	args := []sim.Value{sim.V("a"), sim.V("b"), sim.V("c")}
	roundTrip := func(nargs int) func(c *sim.Cluster) func(*sim.Context) {
		return func(c *sim.Cluster) func(*sim.Context) {
			c.StartProcess("srv", "m1", func(ctx *sim.Context) {
				ctx.Self().HandleRPC("Echo", func(_ *sim.Context, args []sim.Value) sim.Value { return args[0] })
			})
			return func(ctx *sim.Context) {
				var err error
				switch nargs {
				case 1:
					_, err = ctx.Call("srv", "Echo", args[0])
				case 3:
					_, err = ctx.Call("srv", "Echo", args[0], args[1], args[2])
				}
				if err != nil {
					panic(err)
				}
			}
		}
	}
	cfg := sim.Config{MaxSteps: 32}
	if perCall := mallocsPerOp(cfg, false, roundTrip(1)); perCall > 1.1 {
		t.Errorf("a 1-arg RPC round trip allocates %.4f mallocs with tracing off, want 1 (its call record)", perCall)
	}
	if perCall := mallocsPerOp(cfg, false, roundTrip(3)); perCall > 2.1 {
		t.Errorf("a 3-arg RPC round trip allocates %.4f mallocs with tracing off, want 2 (its call record and its args)", perCall)
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
