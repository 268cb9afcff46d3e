package sim_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// runCluster builds a single-process cluster around fn and runs it.
func runCluster(t *testing.T, cfg sim.Config, fn func(*sim.Context)) (*sim.Cluster, *sim.Outcome) {
	t.Helper()
	c := sim.NewCluster(cfg)
	c.StartProcess("node", "m0", fn)
	out := c.Run()
	return c, out
}

func traced(cfg sim.Config) sim.Config {
	cfg.Tracing = sim.TraceSelective
	return cfg
}

func TestRunCompletesWhenMainFinishes(t *testing.T) {
	_, out := runCluster(t, sim.Config{Seed: 1}, func(ctx *sim.Context) {
		ctx.Yield()
	})
	if !out.Completed {
		t.Fatalf("run did not complete: %+v", out)
	}
	if out.Steps == 0 {
		t.Fatal("no steps executed")
	}
}

func TestDaemonsDoNotBlockCompletion(t *testing.T) {
	_, out := runCluster(t, sim.Config{Seed: 1}, func(ctx *sim.Context) {
		ctx.GoDaemon("bg", func(ctx *sim.Context) {
			for {
				ctx.Sleep(50)
			}
		})
		ctx.Sleep(10)
	})
	if !out.Completed {
		t.Fatalf("daemon kept the run alive: %+v", out.Hung)
	}
}

func TestNonDaemonKeepsRunAlive(t *testing.T) {
	val := 0
	_, out := runCluster(t, sim.Config{Seed: 1}, func(ctx *sim.Context) {
		ctx.Go("worker", func(ctx *sim.Context) {
			ctx.Sleep(200)
			val = 42
		})
	})
	if !out.Completed || val != 42 {
		t.Fatalf("worker did not finish before the run ended (val=%d)", val)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1})
	var woke int64
	c.StartProcess("node", "m0", func(ctx *sim.Context) {
		ctx.Sleep(500)
		woke = ctx.Cluster().Clock()
	})
	c.Run()
	if woke < 500 {
		t.Fatalf("woke at %d, want >= 500", woke)
	}
}

func TestDeadlockDetection(t *testing.T) {
	_, out := runCluster(t, sim.Config{Seed: 1}, func(ctx *sim.Context) {
		cv := ctx.NewCond("never")
		_, _ = cv.Wait(ctx)
	})
	if out.Completed {
		t.Fatal("deadlocked run reported completed")
	}
	if len(out.Hung) != 1 || out.Hung[0].Reason != "wait:never" {
		t.Fatalf("hang not attributed to the wait: %+v", out.Hung)
	}
}

func TestStepBudget(t *testing.T) {
	_, out := runCluster(t, sim.Config{Seed: 1, MaxSteps: 200}, func(ctx *sim.Context) {
		for {
			ctx.Yield()
		}
	})
	if out.Completed || !out.StepBudgetHit {
		t.Fatalf("budget not enforced: %+v", out)
	}
}

// TestStallRuleCutsLoopOverSeenSites: a non-daemon thread that loops over a
// site it has already reached makes no progress however busy a daemon keeps
// the scheduler, so the stall rule cuts the run StallPicks picks after the
// last new site; without the rule the same cluster runs to its clock budget.
func TestStallRuleCutsLoopOverSeenSites(t *testing.T) {
	const maxSteps, stall = 5_000, 300
	for _, stallPicks := range []int64{stall, 0} {
		var lastNew int64
		_, out := runCluster(t, sim.Config{Seed: 1, MaxSteps: maxSteps, StallPicks: stallPicks}, func(ctx *sim.Context) {
			ctx.GoDaemon("gossip", func(ctx *sim.Context) {
				for {
					ctx.Now()
					ctx.Yield()
				}
			})
			for i := 0; ; i++ {
				ctx.Now()
				if i == 0 {
					lastNew = ctx.Cluster().Clock() // the clock counts picks and timer jumps
				}
				ctx.Yield()
			}
		})
		if out.Completed || !out.StepBudgetHit || len(out.Hung) != 1 {
			t.Fatalf("StallPicks %d: Completed=%v StepBudgetHit=%v Hung=%+v, want one hung thread", stallPicks, out.Completed, out.StepBudgetHit, out.Hung)
		}
		if stallPicks == 0 {
			if out.Steps < maxSteps || out.Hung[0].Reason != "live (budget exhausted)" {
				t.Fatalf("without the stall rule: Steps=%d reason %q, want the %d-tick clock budget", out.Steps, out.Hung[0].Reason, maxSteps)
			}
			continue
		}
		if out.Picks-lastNew > stallPicks+1 || out.LongestStall != stallPicks+1 || out.Hung[0].Reason != "live (stalled)" {
			t.Fatalf("stall rule: cut at pick %d, last new site at tick %d, LongestStall %d, reason %q; want a cut %d picks after the last new site",
				out.Picks, lastNew, out.LongestStall, out.Hung[0].Reason, stallPicks+1)
		}
	}
}

// TestThreadPanicPropagatesOutOfRun: a panic in a thread body that is not an
// app exception is a bug in the model, and Run's caller can recover it. The
// cluster's other live threads (bystanders and the process's system threads)
// are abandoned: each leaves at most one parked goroutine, its carrier.
func TestThreadPanicPropagatesOutOfRun(t *testing.T) {
	const live = 3
	c := sim.NewCluster(sim.Config{Seed: 1})
	c.StartProcess("node", "m0", func(ctx *sim.Context) {
		ran := 0
		for i := 0; i < live; i++ {
			ctx.Go("bystander", func(ctx *sim.Context) {
				ran++
				for {
					ctx.Yield()
				}
			})
		}
		for ran < live {
			ctx.Yield()
		}
		panic("model bug")
	})
	before := runtime.NumGoroutine()
	defer func() {
		if r := recover(); r != "model bug" {
			t.Fatalf("recovered %v from Run, want the thread's panic", r)
		}
		// The panicking thread still counts as live, but its carrier ended.
		abandoned := sim.LiveThreads(c) - 1
		if abandoned < live {
			t.Fatalf("%d threads abandoned, want the %d bystanders at least", abandoned, live)
		}
		if n := runtime.NumGoroutine() - before; n > abandoned {
			t.Fatalf("a recovered panic left %d more goroutines, want at most %d (one per abandoned thread)", n, abandoned)
		}
	}()
	c.Run()
	t.Fatal("Run returned normally after a thread panicked")
}

// TestConcurrentClustersShareCarriers: clusters running on several
// goroutines at once take their threads' carriers from one idle list, so a
// carrier that ran a thread of one cluster carries a thread of another on a
// different goroutine; every run must still match a run made alone.
func TestConcurrentClustersShareCarriers(t *testing.T) {
	run := func() int64 {
		c := sim.NewCluster(sim.Config{Seed: 7})
		c.StartProcess("node", "m0", func(ctx *sim.Context) {
			for i := 0; i < 20; i++ {
				ctx.Go("child", func(ctx *sim.Context) {
					ctx.Yield()
					ctx.Yield()
				})
			}
		})
		return c.Run().Steps
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if got := run(); got != want {
					t.Errorf("concurrent run took %d steps, alone %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCondSignalThenWaitIsLatch(t *testing.T) {
	got := ""
	runCluster(t, sim.Config{Seed: 1}, func(ctx *sim.Context) {
		cv := ctx.NewCond("latch")
		cv.Signal(ctx, sim.V("payload"))
		v, err := cv.Wait(ctx) // already set: returns immediately
		if err != nil {
			t.Errorf("wait after signal errored: %v", err)
		}
		got = v.Str()
	})
	if got != "payload" {
		t.Fatalf("latch payload = %q, want %q", got, "payload")
	}
}

func TestCondWaitThenSignalAcrossThreads(t *testing.T) {
	got := ""
	_, out := runCluster(t, sim.Config{Seed: 1}, func(ctx *sim.Context) {
		cv := ctx.NewCond("cross")
		ctx.Go("signaller", func(ctx *sim.Context) {
			ctx.Sleep(50)
			cv.Signal(ctx, sim.V("hi"))
		})
		v, _ := cv.Wait(ctx)
		got = v.Str()
	})
	if !out.Completed || got != "hi" {
		t.Fatalf("cross-thread signal failed: completed=%v got=%q", out.Completed, got)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	var timedOut bool
	var at int64
	runCluster(t, sim.Config{Seed: 1}, func(ctx *sim.Context) {
		cv := ctx.NewCond("lonely")
		_, err := cv.WaitTimeout(ctx, 300)
		timedOut = sim.ErrWaitTimeout(err)
		at = ctx.Cluster().Clock()
	})
	if !timedOut {
		t.Fatal("timed wait did not time out")
	}
	if at < 300 {
		t.Fatalf("timed out too early: clock=%d", at)
	}
}

func TestCondTimeoutThenLateSignalDoesNotCrash(t *testing.T) {
	_, out := runCluster(t, sim.Config{Seed: 1}, func(ctx *sim.Context) {
		cv := ctx.NewCond("late")
		ctx.Go("late-signaller", func(ctx *sim.Context) {
			ctx.Sleep(500)
			cv.Signal(ctx)
		})
		if _, err := cv.WaitTimeout(ctx, 100); !sim.ErrWaitTimeout(err) {
			t.Error("expected timeout before the late signal")
		}
	})
	if !out.Completed {
		t.Fatalf("run hung: %+v", out.Hung)
	}
}

func TestHeapObjectRoundTrip(t *testing.T) {
	runCluster(t, sim.Config{Seed: 1}, func(ctx *sim.Context) {
		obj := ctx.NewObject("Thing")
		obj.Set(ctx, "f", sim.V(7))
		if got := obj.Get(ctx, "f").Int(); got != 7 {
			t.Errorf("Get = %d, want 7", got)
		}
		if obj.Get(ctx, "missing").Data != nil {
			t.Error("missing field should be nil")
		}
	})
}

func TestNamedObjectIsSingletonPerNode(t *testing.T) {
	runCluster(t, sim.Config{Seed: 1}, func(ctx *sim.Context) {
		a := ctx.NamedObject("shared")
		b := ctx.NamedObject("shared")
		if a != b {
			t.Error("NamedObject returned two objects for one name")
		}
		a.Set(ctx, "x", sim.V(1))
		done := ctx.NewCond("done")
		ctx.Go("other", func(ctx *sim.Context) {
			if ctx.NamedObject("shared").Get(ctx, "x").Int() != 1 {
				t.Error("named object not shared across threads")
			}
			done.Signal(ctx)
		})
		_, _ = done.Wait(ctx)
	})
}

func TestCrossProcessHeapAccessPanics(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1})
	var obj *sim.Object
	ready := make(chan struct{}, 1)
	_ = ready
	c.StartProcess("a", "m0", func(ctx *sim.Context) {
		obj = ctx.NewObject("private")
		ctx.Sleep(100)
	})
	c.StartProcess("b", "m1", func(ctx *sim.Context) {
		ctx.Sleep(20)
		defer func() {
			if recover() == nil {
				t.Error("cross-process heap access did not panic")
			}
		}()
		obj.Set(ctx, "x", sim.V(1))
	})
	defer func() { recover() }() // the panic propagates out of Run
	c.Run()
}

func TestValueTaintFlow(t *testing.T) {
	runCluster(t, traced(sim.Config{Seed: 1}), func(ctx *sim.Context) {
		ctx.Go("h", func(ctx *sim.Context) {}) // ensure tracer sees activity
		obj := ctx.NamedObject("o")
		obj.Set(ctx, "src", sim.V("x"))
		// Reads outside handlers are untraced under selective tracing, so
		// they add no taint id — but stored taints still flow.
		v := obj.Get(ctx, "src")
		d := sim.Derive("y", v, sim.V("z"))
		if d.Str() != "y" {
			t.Errorf("Derive data = %q", d.Str())
		}
	})
}

func TestGuardReturnsTruthiness(t *testing.T) {
	runCluster(t, sim.Config{Seed: 1}, func(ctx *sim.Context) {
		if !ctx.Guard(sim.V(true)) || ctx.Guard(sim.V(false)) {
			t.Error("Guard truthiness wrong for bools")
		}
		if !ctx.Guard(sim.V("s")) || ctx.Guard(sim.V("")) {
			t.Error("Guard truthiness wrong for strings")
		}
		if !ctx.Guard(sim.V(1)) || ctx.Guard(sim.V(0)) {
			t.Error("Guard truthiness wrong for ints")
		}
	})
}

func TestMessageDelivery(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1})
	var got []string
	c.StartProcess("rx", "m0", func(ctx *sim.Context) {
		ctx.Self().HandleMsg("ping", func(ctx *sim.Context, m sim.Message) {
			got = append(got, m.Payload.Str())
		})
		ctx.Sleep(300)
	})
	c.StartProcess("tx", "m1", func(ctx *sim.Context) {
		for i := 0; i < 3; i++ {
			if err := ctx.Send("rx", "ping", sim.V(fmt.Sprintf("p%d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	c.Run()
	if len(got) != 3 || got[0] != "p0" || got[2] != "p2" {
		t.Fatalf("messages not received in order: %v", got)
	}
}

func TestMessageStashUntilHandlerRegistered(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1})
	var got string
	c.StartProcess("rx", "m0", func(ctx *sim.Context) {
		ctx.Sleep(200) // handler registered late
		ctx.Self().HandleMsg("early", func(ctx *sim.Context, m sim.Message) {
			got = m.Payload.Str()
		})
		ctx.Sleep(50)
	})
	c.StartProcess("tx", "m1", func(ctx *sim.Context) {
		_ = ctx.Send("rx", "early", sim.V("stashed"))
	})
	c.Run()
	if got != "stashed" {
		t.Fatalf("early message lost: got %q", got)
	}
}

func TestSendToUnknownRole(t *testing.T) {
	runCluster(t, sim.Config{Seed: 1}, func(ctx *sim.Context) {
		if err := ctx.Send("ghost", "x", sim.V(1)); err != sim.ErrNoRoute {
			t.Errorf("send to unknown role: err = %v, want ErrNoRoute", err)
		}
	})
}

func TestRPCBasics(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, RPCFailFast: true})
	c.StartProcess("srv", "m0", func(ctx *sim.Context) {
		ctx.Self().HandleRPC("Echo", func(ctx *sim.Context, args []sim.Value) sim.Value {
			return sim.Derive("echo:"+args[0].Str(), args[0])
		})
		ctx.Sleep(300)
	})
	var got string
	var err error
	c.StartProcess("cli", "m1", func(ctx *sim.Context) {
		var v sim.Value
		v, err = ctx.Call("srv", "Echo", sim.V("hi"))
		got = v.Str()
	})
	out := c.Run()
	if !out.Completed || err != nil || got != "echo:hi" {
		t.Fatalf("rpc: completed=%v err=%v got=%q", out.Completed, err, got)
	}
}

func TestRPCStashedUntilHandlerRegistered(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, RPCFailFast: true})
	c.StartProcess("srv", "m0", func(ctx *sim.Context) {
		ctx.Sleep(150)
		ctx.Self().HandleRPC("Late", func(ctx *sim.Context, args []sim.Value) sim.Value {
			return sim.V("late-ok")
		})
		ctx.Sleep(100)
	})
	var got string
	c.StartProcess("cli", "m1", func(ctx *sim.Context) {
		v, err := ctx.Call("srv", "Late")
		if err != nil {
			t.Errorf("late call: %v", err)
		}
		got = v.Str()
	})
	c.Run()
	if got != "late-ok" {
		t.Fatalf("stashed rpc lost: %q", got)
	}
}

func TestRPCRemoteException(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, RPCFailFast: true})
	c.StartProcess("srv", "m0", func(ctx *sim.Context) {
		ctx.Self().HandleRPC("Boom", func(ctx *sim.Context, args []sim.Value) sim.Value {
			ctx.Throw("KaboomException")
			return sim.Value{}
		})
		ctx.Sleep(300)
	})
	var err error
	c.StartProcess("cli", "m1", func(ctx *sim.Context) {
		_, err = ctx.Call("srv", "Boom")
	})
	out := c.Run()
	if !out.Completed {
		t.Fatalf("run hung: %+v", out.Hung)
	}
	re, ok := err.(*sim.RemoteError)
	if !ok || re.Kind != "KaboomException" {
		t.Fatalf("remote exception not propagated: %v", err)
	}
}

func TestThrowAndTry(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective})
	c.StartProcess("n", "m0", func(ctx *sim.Context) {
		err := ctx.Try(func() {
			ctx.Throw("HandledException", sim.V("why"))
		})
		if err == nil || err.Kind != "HandledException" {
			t.Errorf("Try did not catch: %v", err)
		}
	})
	out := c.Run()
	if len(out.UncaughtExceptions) != 0 {
		t.Fatalf("caught exception recorded as uncaught: %v", out.UncaughtExceptions)
	}
	var caught []string
	tr := c.Trace()
	for i := range tr.Records {
		if r := &tr.Records[i]; r.Kind == trace.KCatch {
			caught = append(caught, tr.Str(r.Aux))
		}
	}
	if len(caught) != 1 || caught[0] != "HandledException" {
		t.Fatalf("handled exceptions = %v, want one KCatch of HandledException", caught)
	}
}

func TestUncaughtExceptionKillsThreadNotRun(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1})
	survived := false
	c.StartProcess("n", "m0", func(ctx *sim.Context) {
		ctx.Go("dies", func(ctx *sim.Context) {
			ctx.Throw("UnhandledException")
		})
		ctx.Sleep(100)
		survived = true
	})
	out := c.Run()
	if !out.Completed || !survived {
		t.Fatalf("uncaught exception broke the whole run: %+v", out)
	}
	if len(out.UncaughtExceptions) != 1 {
		t.Fatalf("uncaught = %v", out.UncaughtExceptions)
	}
}

func TestEventDispatchCausality(t *testing.T) {
	c := sim.NewCluster(traced(sim.Config{Seed: 1}))
	handled := false
	c.StartProcess("n", "m0", func(ctx *sim.Context) {
		ctx.Self().HandleEvent("tick", func(ctx *sim.Context, payload sim.Value) {
			handled = true
		})
		ctx.Emit("tick", sim.V("now"))
		ctx.Sleep(100)
	})
	c.Run()
	if !handled {
		t.Fatal("event never handled")
	}
	// The handler frame must causally depend on the enqueue op.
	tr := c.Trace()
	var enq, frame trace.OpID
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Kind == trace.KEventEnq && tr.Str(r.Aux) == "tick" {
			enq = r.ID
		}
		if r.Kind == trace.KHandlerBegin && tr.Str(r.Aux) == "event:tick" {
			frame = r.Causor
		}
	}
	if enq == trace.NoOp || frame != enq {
		t.Fatalf("handler causor = %d, want enqueue op %d", frame, enq)
	}
}

func TestSyncLoopExitsOnCondition(t *testing.T) {
	iter := 0
	_, out := runCluster(t, sim.Config{Seed: 1}, func(ctx *sim.Context) {
		obj := ctx.NamedObject("o")
		ctx.Go("setter", func(ctx *sim.Context) {
			ctx.Sleep(120)
			obj.Set(ctx, "flag", sim.V(true))
		})
		ctx.SyncLoop(sim.LoopOpts{Name: "poll", SleepTicks: 20}, func(ctx *sim.Context) sim.Value {
			iter++
			return obj.Get(ctx, "flag")
		})
	})
	if !out.Completed || iter < 2 {
		t.Fatalf("loop did not poll then exit (iters=%d completed=%v)", iter, out.Completed)
	}
}

func TestBoundedLoopStopsAtMaxIters(t *testing.T) {
	iter := 0
	runCluster(t, sim.Config{Seed: 1}, func(ctx *sim.Context) {
		ctx.SyncLoop(sim.LoopOpts{Name: "bounded", SleepTicks: 5, Bounded: true, MaxIters: 7}, func(ctx *sim.Context) sim.Value {
			iter++
			return sim.V(false)
		})
	})
	if iter != 7 {
		t.Fatalf("bounded loop ran %d iters, want 7", iter)
	}
}

func TestNowCarriesTimeTaint(t *testing.T) {
	c := sim.NewCluster(traced(sim.Config{Seed: 1}))
	c.StartProcess("n", "m0", func(ctx *sim.Context) {
		v := ctx.Now()
		if len(v.Taint()) != 1 {
			t.Errorf("Now taint = %v, want one time-read op", v.Taint())
		}
	})
	c.Run()
}
