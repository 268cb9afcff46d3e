package sim_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fcatch/internal/sim"
	"fcatch/internal/storage"
	"fcatch/internal/trace"
)

// genCluster builds a pseudo-random mini distributed system from genSeed:
// 2–4 processes exchanging messages, RPCs, events, heap traffic and global-
// file traffic, with handlers doing payload-determined follow-up work. The
// construction is fully determined by genSeed, so the same genSeed always
// yields the same system — which lets the invariant checks below replay it
// under different fault plans.
func genCluster(genSeed int64, cfg sim.Config) *sim.Cluster {
	gen := rand.New(rand.NewSource(genSeed))
	nProcs := 2 + gen.Intn(3)
	nOps := 8 + gen.Intn(20)

	type opSpec struct {
		kind    int // 0 send, 1 rpc, 2 event, 3 heap, 4 gfs write, 5 gfs read, 6 sleep, 7 spawn, 8 signal/wait pair
		peer    int
		payload int
	}
	plans := make([][]opSpec, nProcs)
	for p := 0; p < nProcs; p++ {
		for i := 0; i < nOps; i++ {
			plans[p] = append(plans[p], opSpec{
				kind:    gen.Intn(9),
				peer:    gen.Intn(nProcs),
				payload: gen.Intn(50),
			})
		}
	}

	c := sim.NewCluster(cfg)
	gfs := storage.NewGlobalFS()
	for p := 0; p < nProcs; p++ {
		role := fmt.Sprintf("proc%d", p)
		c.StartProcess(role, "m-"+role, func(ctx *sim.Context) {
			self := ctx.Self()
			self.HandleMsg("work", func(ctx *sim.Context, m sim.Message) {
				obj := ctx.NamedObject("inbox")
				n := obj.Get(ctx, "count")
				obj.Set(ctx, "count", sim.Derive(n.Int()+1, n, m.Payload))
				if m.Payload.Int()%7 == 0 {
					gfs.Write(ctx, fmt.Sprintf("/shared/%s", ctx.Role()), m.Payload)
				}
			})
			self.HandleRPC("Query", func(ctx *sim.Context, args []sim.Value) sim.Value {
				v := ctx.NamedObject("inbox").Get(ctx, "count")
				return sim.Derive(v.Int(), v, args[0])
			})
			self.HandleEvent("tick", func(ctx *sim.Context, payload sim.Value) {
				ctx.NamedObject("inbox").Set(ctx, "lastTick", payload)
			})

			for _, op := range plans[p] {
				peer := fmt.Sprintf("proc%d", op.peer)
				switch op.kind {
				case 0:
					_ = ctx.Send(peer, "work", sim.V(op.payload))
				case 1:
					_, _ = ctx.Call(peer, "Query", sim.V(op.payload))
				case 2:
					ctx.Emit("tick", sim.V(op.payload))
				case 3:
					obj := ctx.NamedObject("local")
					obj.Set(ctx, "x", sim.V(op.payload))
					_ = obj.Get(ctx, "x")
				case 4:
					gfs.Write(ctx, fmt.Sprintf("/fuzz/%d", op.payload%5), sim.V(op.payload))
				case 5:
					_, _ = gfs.Read(ctx, fmt.Sprintf("/fuzz/%d", op.payload%5))
				case 6:
					ctx.Sleep(int64(op.payload%40 + 1))
				case 7:
					pl := op.payload
					ctx.Go("spawned", func(ctx *sim.Context) {
						ctx.NamedObject("local").Set(ctx, "spawned", sim.V(pl))
					})
				case 8:
					cv := ctx.NewCond("pair")
					pl := op.payload
					ctx.Go("signaller", func(ctx *sim.Context) {
						ctx.Sleep(int64(pl%20 + 1))
						cv.Signal(ctx, sim.V(pl))
					})
					_, _ = cv.WaitTimeout(ctx, 200)
				}
			}
		})
	}
	return c
}

func fuzzConfig(seed int64, plan *sim.FaultPlan) sim.Config {
	return sim.Config{
		Seed: seed, Tracing: sim.TraceSelective, MaxSteps: 30_000,
		RPCClientTimeout: 300, RPCFailFast: true, Plan: plan,
	}
}

func traceString(t *trace.Trace) string {
	var b strings.Builder
	for i := range t.Records {
		b.WriteString(t.Format(&t.Records[i]))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFuzzDeterminism: any generated system replays to an identical trace.
func TestFuzzDeterminism(t *testing.T) {
	for genSeed := int64(0); genSeed < 25; genSeed++ {
		c1 := genCluster(genSeed, fuzzConfig(genSeed, nil))
		c1.Run()
		c2 := genCluster(genSeed, fuzzConfig(genSeed, nil))
		c2.Run()
		if traceString(c1.Trace()) != traceString(c2.Trace()) {
			t.Fatalf("genSeed %d: traces diverge between identical replays", genSeed)
		}
	}
}

// TestFuzzCheckpointPrefix: crashing a process at step S must leave the
// pre-S trace identical to the fault-free one (the deterministic-replay
// stand-in for the paper's VM checkpointing, on arbitrary systems).
func TestFuzzCheckpointPrefix(t *testing.T) {
	for genSeed := int64(0); genSeed < 25; genSeed++ {
		base := genCluster(genSeed, fuzzConfig(genSeed, nil))
		baseOut := base.Run()
		if baseOut.Steps < 10 {
			continue
		}
		rng := rand.New(rand.NewSource(genSeed ^ 0x5eed))
		step := 1 + rng.Int63n(baseOut.Steps)
		victim := fmt.Sprintf("proc%d", rng.Intn(2))
		plan := sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: step}}, victim, nil)
		faulty := genCluster(genSeed, fuzzConfig(genSeed, plan))
		faulty.Run()

		tf, ty := base.Trace(), faulty.Trace()
		for i := 0; i < tf.Len() && i < ty.Len(); i++ {
			a, b := &tf.Records[i], &ty.Records[i]
			if a.TS >= step || b.TS >= step {
				break
			}
			if tf.Format(a) != ty.Format(b) {
				t.Fatalf("genSeed %d crash@%d: prefix diverges at %d:\n  %s\n  %s",
					genSeed, step, i, tf.Format(a), ty.Format(b))
			}
		}
	}
}

// TestFuzzCrashSemantics: after a crash, the victim contributes no further
// operations, and the trace records the crash.
func TestFuzzCrashSemantics(t *testing.T) {
	for genSeed := int64(0); genSeed < 25; genSeed++ {
		base := genCluster(genSeed, fuzzConfig(genSeed, nil))
		baseOut := base.Run()
		if baseOut.Steps < 20 {
			continue
		}
		step := baseOut.Steps / 3
		plan := sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: step}}, "proc0", nil)
		c := genCluster(genSeed, fuzzConfig(genSeed, plan))
		c.Run()
		ty := c.Trace()
		crashes := ty.Filter(trace.Query{Kinds: []trace.Kind{trace.KCrash}})
		if len(crashes) == 0 || ty.Str(crashes[0].Aux) != "proc0#1" {
			t.Fatalf("genSeed %d: crash record missing (%d crash records)", genSeed, len(crashes))
		}
		for i := range ty.Records {
			r := &ty.Records[i]
			if ty.Str(r.PID) == "proc0#1" && r.TS > crashes[0].TS && r.Kind != trace.KThreadExit {
				t.Fatalf("genSeed %d: victim op after crash: %s", genSeed, ty.Format(r))
			}
		}
	}
}

// TestFuzzTraceWellFormed: structural invariants of any produced trace —
// dense IDs, valid frames, frames that are activations, causors that
// precede their causees, and define-use links that point at earlier
// write-like ops on the same resource.
func TestFuzzTraceWellFormed(t *testing.T) {
	for genSeed := int64(0); genSeed < 25; genSeed++ {
		c := genCluster(genSeed, fuzzConfig(genSeed, nil))
		c.Run()
		tr := c.Trace()
		for i := range tr.Records {
			r := &tr.Records[i]
			if int(r.ID) != i+1 {
				t.Fatalf("genSeed %d: non-dense id %d at %d", genSeed, r.ID, i)
			}
			if r.Frame != trace.NoOp {
				f := tr.At(r.Frame)
				if f == nil || !f.Kind.IsActivation() {
					t.Fatalf("genSeed %d: op %s has bad frame", genSeed, tr.Format(r))
				}
				if f.ID >= r.ID {
					t.Fatalf("genSeed %d: frame after op: %s", genSeed, tr.Format(r))
				}
			}
			if r.Kind.IsActivation() && r.Causor != trace.NoOp {
				cz := tr.At(r.Causor)
				if cz == nil || cz.ID >= r.ID {
					t.Fatalf("genSeed %d: activation causor invalid: %s", genSeed, tr.Format(r))
				}
				if !cz.Kind.IsCausal() && cz.Kind != trace.KKVNotify {
					t.Fatalf("genSeed %d: causor is not a causal op: %s <- %s", genSeed, tr.Format(r), tr.Format(cz))
				}
			}
			if r.Src != trace.NoOp && r.Kind.IsReadLike() {
				w := tr.At(r.Src)
				if w == nil || !w.Kind.IsWriteLike() || w.Res != r.Res || w.ID >= r.ID {
					t.Fatalf("genSeed %d: bad define-use link: %s src=%d", genSeed, tr.Format(r), r.Src)
				}
			}
		}
	}
}

// TestFuzzReadyListIsTheScan: after every pick of a generated system's run,
// fault-free and with a process crashed, the scheduler's ready list holds
// exactly the runnable threads in spawn order, and the checked run saves the
// trace a plain run saves.
func TestFuzzReadyListIsTheScan(t *testing.T) {
	for genSeed := int64(0); genSeed < 25; genSeed++ {
		base := genCluster(genSeed, fuzzConfig(genSeed, nil))
		plans := []*sim.FaultPlan{nil}
		if steps := base.Run().Steps; steps >= 20 {
			plans = append(plans, sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: steps / 3}}, "proc0", nil))
		}
		for _, plan := range plans {
			c := genCluster(genSeed, fuzzConfig(genSeed, plan))
			if _, err := sim.RunCheckingReady(c); err != nil {
				t.Fatalf("genSeed %d (crash %v): %v", genSeed, plan != nil, err)
			}
			plain := genCluster(genSeed, fuzzConfig(genSeed, plan))
			plain.Run()
			if traceString(c.Trace()) != traceString(plain.Trace()) {
				t.Fatalf("genSeed %d (crash %v): the checked run's trace differs from a plain run's", genSeed, plan != nil)
			}
		}
	}
}

// TestFuzzRunsTerminate: every generated system ends (completion, deadlock
// report, or a hang rule) — the scheduler never wedges.
func TestFuzzRunsTerminate(t *testing.T) {
	for genSeed := int64(100); genSeed < 160; genSeed++ {
		c := genCluster(genSeed, fuzzConfig(genSeed, nil))
		out := c.Run()
		if out.Stop == "" || out.Stop == sim.StopDeadlock && len(out.Hung) == 0 {
			t.Fatalf("genSeed %d: run ended in limbo: %+v", genSeed, out)
		}
	}
}
