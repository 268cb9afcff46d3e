package sim_test

import (
	"cmp"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"
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
	if !out.Completed() {
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
	if !out.Completed() {
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
	if !out.Completed() || val != 42 {
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
	if out.Completed() {
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
	if out.Completed() || out.Stop != sim.StopBudget {
		t.Fatalf("budget not enforced: %+v", out)
	}
}

// manyThreads builds three processes of 24 workers each that wait for their
// process's start latch, then wait on latches with timeouts, sleep, signal,
// yield and call each other, so threads block and wake out of spawn order;
// cfg's plan may crash one of them mid-run. It returns the cluster and a
// pointer to the count of workers spawned so far.
func manyThreads(cfg sim.Config) (*sim.Cluster, *int) {
	const procs, workers, rounds = 3, 24, 6
	cfg.MaxSteps, cfg.RPCClientTimeout, cfg.RPCFailFast = 20_000, 40, true
	c := sim.NewCluster(cfg)
	spawned := new(int)
	for p := range procs {
		peer := fmt.Sprintf("w%d", (p+1)%procs)
		c.StartProcess(fmt.Sprintf("w%d", p), fmt.Sprintf("m%d", p), func(ctx *sim.Context) {
			ctx.Self().HandleRPC("Echo", func(ctx *sim.Context, args []sim.Value) sim.Value {
				ctx.Sleep(int64(args[0].Int()%4 + 1))
				return args[0]
			})
			var conds [rounds][8]*sim.Cond
			for r := range conds {
				for j := range conds[r] {
					conds[r][j] = ctx.NewCond(fmt.Sprintf("c%d.%d", r, j))
				}
			}
			start := ctx.NewCond("start")
			for i := range workers {
				*spawned++
				ctx.Go("worker", func(ctx *sim.Context) {
					_, _ = start.Wait(ctx)
					for r := range rounds {
						switch (i + r) % 4 {
						case 0:
							_, _ = conds[r][i%8].WaitTimeout(ctx, int64(3+i%7))
						case 1:
							ctx.Sleep(int64(1 + i%5))
						case 2:
							conds[r][(i+1)%8].Signal(ctx)
							ctx.Yield()
						case 3:
							_, _ = ctx.Call(peer, "Echo", sim.V(i+r))
						}
					}
				})
			}
			start.Signal(ctx)
		})
	}
	return c, spawned
}

// TestReadyListIsTheScan: in runs of more than 64 threads that block, wake
// and, when a process crashes, are killed, the scheduler's ready list holds
// exactly the runnable threads in spawn order after every pick, and a
// checked run picks what a plain run picks. The crash sweeps a stretch of
// steps: a crash fails the calls to its victim at a step boundary, and wakes
// callers that blocked during the step before, which are still listed.
func TestReadyListIsTheScan(t *testing.T) {
	check := func(seed, crashAt int64, plain bool) {
		t.Helper()
		cfg := func() sim.Config {
			cfg := sim.Config{Seed: seed}
			if crashAt > 0 {
				cfg.Plan = sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: crashAt}}, "w1", nil)
			}
			return cfg
		}
		c, spawned := manyThreads(cfg())
		out, err := sim.RunCheckingReady(c)
		if err != nil {
			t.Fatalf("seed %d crash@%d: %v", seed, crashAt, err)
		}
		if *spawned < 64 {
			t.Fatalf("seed %d crash@%d: spawned %d workers, want at least 64", seed, crashAt, *spawned)
		}
		if crashAt > 0 && len(out.FaultFirings) == 0 {
			t.Fatalf("seed %d crash@%d: the crash did not fire", seed, crashAt)
		}
		if !plain {
			return
		}
		p, _ := manyThreads(cfg())
		want := p.Run()
		if out.Picks != want.Picks || out.Steps != want.Steps || out.Detail() != want.Detail() {
			t.Fatalf("seed %d crash@%d: checked run %d picks %d steps %q, plain run %d %d %q",
				seed, crashAt, out.Picks, out.Steps, out.Detail(), want.Picks, want.Steps, want.Detail())
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		check(seed, 0, true)
		check(seed, 400+50*seed, true)
	}
	for crashAt := int64(400); crashAt < 560; crashAt++ {
		check(1, crashAt, false)
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
		want := sim.StopStall
		if stallPicks == 0 {
			want = sim.StopBudget
		}
		if out.Completed() || out.Stop != want || len(out.Hung) != 1 {
			t.Fatalf("StallPicks %d: Completed=%v Stop=%q Hung=%+v, want one hung thread and stop %q", stallPicks, out.Completed(), out.Stop, out.Hung, want)
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

// TestQuiescenceRule: main waits on a latch, or polls in a sync loop, while a
// daemon sleeps in a loop. Once every live non-daemon thread waits on a latch
// with no timeout or polls a condition found false, no restart is armed and
// every fault event has fired, only daemons can act, and the run is hung
// after exactly MaxSteps/5 such picks — or StallPicks/3 under the stall
// rule, if fewer; a new site restarts that count. A thread with a timer that
// will move it on (Sleep, or WaitTimeout without the stall rule), a loop the
// likely-sync heuristic rejects (bounded, or not giving up the CPU), a
// pending restart or an unfired fault event keeps the run on its clock
// budget; a daemon's wait or poll does not count, and neither does an RPC
// handler serving a daemon, which the hang report leaves out too.
func TestQuiescenceRule(t *testing.T) {
	const budget, stallPicks = 5_000, 3*300 + 2
	// quiet counts main's quiescent picks: the daemon's wakeups while main
	// is blocked or polling, and main's own poll iterations after its first.
	// The daemon sets signalled once it has signalled the latch.
	type quiet struct {
		blocked, signalled bool
		picks              int
	}
	untimedOn := func(name string) func(*sim.Context, *sim.Cond, *quiet) {
		return func(ctx *sim.Context, latch *sim.Cond, q *quiet) {
			if name != "latch" {
				latch = ctx.NewCond(name)
			}
			q.blocked, q.picks = true, 0
			_, _ = latch.Wait(ctx)
			q.blocked = false
		}
	}
	untimed := untimedOn("latch")
	timed := func(ctx *sim.Context, latch *sim.Cond, q *quiet) {
		q.blocked, q.picks = true, 0
		_, _ = latch.WaitTimeout(ctx, 2*budget)
		q.blocked = false
	}
	// serveSleep registers an RPC method on main's node whose handler sleeps
	// past the clock budget: a sleeper keeps the run from being quiescent
	// unless it serves a daemon.
	serveSleep := func(ctx *sim.Context, method string) {
		ctx.Self().HandleRPC(method, func(ctx *sim.Context, _ []sim.Value) sim.Value {
			ctx.Sleep(2 * budget)
			return sim.Value{}
		})
	}
	// callFromDaemon has a daemon call method on main's node, then lets the
	// call's handlers start before main waits.
	callFromDaemon := func(ctx *sim.Context, method string) {
		ctx.GoDaemon("caller", func(ctx *sim.Context) { _, _ = ctx.Call("node", method) })
		ctx.Sleep(20)
	}
	// poll runs a sync loop whose condition is the daemon's signal; onIter,
	// if set, runs in each iteration with the iteration's number.
	poll := func(opts sim.LoopOpts, onIter func(ctx *sim.Context, q *quiet, iter int)) func(*sim.Context, *sim.Cond, *quiet) {
		return func(ctx *sim.Context, _ *sim.Cond, q *quiet) {
			iter := 0
			ctx.SyncLoop(opts, func(ctx *sim.Context) sim.Value {
				if iter++; iter == 1 {
					q.blocked, q.picks = true, 0
				} else {
					q.picks++
				}
				if onIter != nil {
					onIter(ctx, q, iter)
				}
				return sim.V(q.signalled)
			})
			q.blocked = false
		}
	}
	victim := func(c *sim.Cluster) {
		c.StartProcess("victim", "m1", func(ctx *sim.Context) {
			for {
				ctx.Sleep(1)
			}
		})
	}
	cases := []struct {
		name       string
		wait       func(ctx *sim.Context, latch *sim.Cond, q *quiet)
		signalAt   int   // the daemon's loop iteration that signals the latch (0: none)
		stallPicks int64 // Config.StallPicks
		plan       func() *sim.FaultPlan
		boot       func(c *sim.Cluster)
		stop       string
		reason     string // the hung main thread's reason ("" when the run completes)
		alsoHung   string // another thread the hang report lists, after main
		cut        int    // quiescent picks at a quiescent cut (0: MaxSteps/5)
	}{
		{name: "latch never signalled", wait: untimed, stop: sim.StopQuiescent, reason: "wait:latch"},
		{name: "daemon signals in time", wait: untimed, signalAt: budget/5 - 50, stop: sim.StopDone},
		{name: "quiescent again after a signal", wait: func(ctx *sim.Context, latch *sim.Cond, q *quiet) {
			untimed(ctx, latch, q)
			untimedOn("again")(ctx, latch, q)
		}, signalAt: budget/5 - 50, stop: sim.StopQuiescent, reason: "wait:again"},
		{name: "a daemon waits too", wait: func(ctx *sim.Context, latch *sim.Cond, q *quiet) {
			ctx.GoDaemon("idle", func(ctx *sim.Context) { _, _ = ctx.NewCond("idle").Wait(ctx) })
			ctx.Sleep(10) // the daemon blocks first
			untimed(ctx, latch, q)
		}, stop: sim.StopQuiescent, reason: "wait:latch"},
		{name: "SyncLoop poller", wait: poll(sim.LoopOpts{Name: "poll", SleepTicks: 2 * budget}, nil),
			stop: sim.StopQuiescent, reason: "loop:poll"},
		{name: "poller's condition turns true in time", wait: func(ctx *sim.Context, latch *sim.Cond, q *quiet) {
			poll(sim.LoopOpts{Name: "poll", SleepTicks: 20}, nil)(ctx, latch, q)
			ctx.Sleep(budget / 2) // not quiescent: the returned loop no longer counts main
		}, signalAt: budget / 10, stop: sim.StopDone},
		{name: "a poller waits in its body", wait: poll(sim.LoopOpts{Name: "poll", SleepTicks: 20}, func(ctx *sim.Context, q *quiet, iter int) {
			if iter == 2 { // polling: the wait must not count main twice
				q.picks++ // the wait op's own step
				_, _ = ctx.NewCond("inner").Wait(ctx)
			}
		}), stop: sim.StopQuiescent, reason: "loop:poll"},
		{name: "a daemon polls too", wait: func(ctx *sim.Context, latch *sim.Cond, q *quiet) {
			ctx.GoDaemon("idle", func(ctx *sim.Context) {
				ctx.SyncLoop(sim.LoopOpts{Name: "idle", SleepTicks: 2 * budget}, func(*sim.Context) sim.Value { return sim.V(false) })
			})
			ctx.Sleep(10) // the daemon polls first
			untimed(ctx, latch, q)
		}, stop: sim.StopQuiescent, reason: "wait:latch"},
		{name: "bounded loop", wait: poll(sim.LoopOpts{Name: "poll", SleepTicks: 2 * budget, Bounded: true}, nil),
			stop: sim.StopBudget, reason: "loop:poll"},
		{name: "loop that keeps the CPU", wait: poll(sim.LoopOpts{Name: "spin"}, nil),
			stop: sim.StopBudget, reason: "loop:spin"},
		{name: "WaitTimeout waiter", wait: timed, stop: sim.StopBudget, reason: "wait:latch"},
		{name: "WaitTimeout under the stall rule", wait: timed, stallPicks: stallPicks,
			stop: sim.StopQuiescent, reason: "wait:latch", cut: stallPicks / 3},
		{name: "Sleep waiter", wait: func(ctx *sim.Context, _ *sim.Cond, _ *quiet) {
			ctx.Sleep(2 * budget)
		}, stop: sim.StopBudget, reason: "sleep"},
		{name: "restart pending", wait: untimed, boot: victim, plan: func() *sim.FaultPlan {
			return sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: 20, Target: "victim"}}, "", map[string]int64{"victim": 1 << 40})
		}, stop: sim.StopBudget, reason: "wait:latch"},
		{name: "site fault unfired", wait: untimed, plan: func() *sim.FaultPlan {
			return sim.NewScenarioPlan([]sim.FaultSpec{{Site: "nowhere.go:1"}}, "", nil)
		}, stop: sim.StopBudget, reason: "wait:latch"},
		{name: "step fault unfired", wait: untimed, plan: func() *sim.FaultPlan {
			return sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: 2 * budget, Target: "node"}}, "", nil)
		}, stop: sim.StopBudget, reason: "wait:latch"},
		{name: "StallPicks/3 under the stall rule", wait: untimed, stallPicks: stallPicks,
			stop: sim.StopQuiescent, reason: "wait:latch", cut: stallPicks / 3},
		{name: "signal in time under the stall rule", wait: untimed, stallPicks: stallPicks,
			signalAt: stallPicks/3 - 20, stop: sim.StopDone},
		{name: "a handler called by a daemon", wait: func(ctx *sim.Context, latch *sim.Cond, q *quiet) {
			serveSleep(ctx, "Nap")
			callFromDaemon(ctx, "Nap")
			untimed(ctx, latch, q)
		}, stop: sim.StopQuiescent, reason: "wait:latch"},
		{name: "a handler of a handler of a daemon", wait: func(ctx *sim.Context, latch *sim.Cond, q *quiet) {
			serveSleep(ctx, "Nap")
			ctx.Self().HandleRPC("Relay", func(ctx *sim.Context, _ []sim.Value) sim.Value {
				v, _ := ctx.Call("node", "Nap")
				return v
			})
			callFromDaemon(ctx, "Relay")
			untimed(ctx, latch, q)
		}, stop: sim.StopQuiescent, reason: "wait:latch"},
		{name: "a daemon's call stashed until its handler is registered", wait: func(ctx *sim.Context, latch *sim.Cond, q *quiet) {
			callFromDaemon(ctx, "Nap")
			serveSleep(ctx, "Nap")
			ctx.Sleep(20) // the handler starts
			untimed(ctx, latch, q)
		}, stop: sim.StopQuiescent, reason: "wait:latch"},
		{name: "a daemon's handler that returned", wait: func(ctx *sim.Context, latch *sim.Cond, q *quiet) {
			ctx.Self().HandleRPC("Ping", func(*sim.Context, []sim.Value) sim.Value { return sim.Value{} })
			callFromDaemon(ctx, "Ping")
			untimed(ctx, latch, q)
		}, stop: sim.StopQuiescent, reason: "wait:latch"},
		{name: "a daemon's handler polls", wait: func(ctx *sim.Context, latch *sim.Cond, q *quiet) {
			ctx.Self().HandleRPC("Poll", func(ctx *sim.Context, _ []sim.Value) sim.Value {
				return ctx.SyncLoop(sim.LoopOpts{Name: "poll", SleepTicks: 2 * budget}, func(*sim.Context) sim.Value { return sim.V(false) })
			})
			callFromDaemon(ctx, "Poll")
			untimed(ctx, latch, q)
		}, stop: sim.StopQuiescent, reason: "wait:latch"},
		{name: "a handler called by a non-daemon", wait: func(ctx *sim.Context, _ *sim.Cond, _ *quiet) {
			serveSleep(ctx, "Nap")
			_, _ = ctx.Call("node", "Nap")
		}, stop: sim.StopBudget, reason: "wait:rpc-reply", alsoHung: "rpc:Nap"},
		{name: "a poller reaches a new site", stallPicks: stallPicks,
			wait: poll(sim.LoopOpts{Name: "poll", SleepTicks: 100}, func(ctx *sim.Context, q *quiet, iter int) {
				if iter == 3 { // well into the quiescent stretch
					q.picks = 0
					sim.ReachSite(ctx, "poll.go:1")
				}
			}), stop: sim.StopQuiescent, reason: "loop:poll", cut: stallPicks / 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.Config{Seed: 1, MaxSteps: budget, StallPicks: tc.stallPicks}
			if tc.plan != nil {
				cfg.Plan = tc.plan()
			}
			c := sim.NewCluster(cfg)
			var q quiet
			c.StartProcess("node", "m0", func(ctx *sim.Context) {
				latch := ctx.NewCond("latch")
				// The daemon sleeps past main's first wait, and again after it
				// signals, so main blocks while no other thread is runnable:
				// each of the daemon's later wakeups is one quiescent pick.
				ctx.GoDaemon("gossip", func(ctx *sim.Context) {
					ctx.Sleep(100)
					for i := 1; ; i++ {
						if q.blocked {
							q.picks++
						}
						nap := int64(1)
						if i == tc.signalAt {
							latch.Signal(ctx)
							q.signalled = true
							nap = 100
						}
						ctx.Sleep(nap)
					}
				})
				ctx.Sleep(50)
				tc.wait(ctx, latch, &q)
			})
			if tc.boot != nil {
				tc.boot(c)
			}
			out := c.Run()
			if out.Stop != tc.stop || out.Completed() != (tc.stop == sim.StopDone) {
				t.Fatalf("Stop=%q Completed=%v after %d picks (%d steps), want Stop %q", out.Stop, out.Completed(), out.Picks, out.Steps, tc.stop)
			}
			if tc.reason == "" {
				return
			}
			// Daemons and the handlers serving them are left out.
			hung := []string{"main"}
			if tc.alsoHung != "" {
				hung = append(hung, tc.alsoHung)
			}
			var names []string
			for _, h := range out.Hung {
				names = append(names, h.Name)
			}
			if !slices.Equal(names, hung) || out.Hung[0].Reason != tc.reason {
				t.Fatalf("Hung=%+v, want %v hung, main with reason %q", out.Hung, hung, tc.reason)
			}
			if tc.stop != sim.StopQuiescent {
				return
			}
			cut := cmp.Or(tc.cut, budget/5)
			if q.picks != cut || out.LongestQuiet != int64(cut) {
				t.Fatalf("cut after %d quiescent picks (LongestQuiet %d), want %d", q.picks, out.LongestQuiet, cut)
			}
		})
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
	if !out.Completed() || got != "hi" {
		t.Fatalf("cross-thread signal failed: completed=%v got=%q", out.Completed(), got)
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
	if !out.Completed() {
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

// TestKeyArenaKeepsEveryKey: a field's key is copied into the run's key
// arena when its slot is made. Keys that fill several arena chunks, and one
// longer than a chunk, each keep their value, and every traced access names
// the field heap:<pid>:<class><id>.<field> and the cond cv:<pid>:<name>/<id>
// (the instance number left out here).
func TestKeyArenaKeepsEveryKey(t *testing.T) {
	fields := []string{strings.Repeat("long", 100)}
	for i := range 120 {
		fields = append(fields, fmt.Sprintf("field-%03d", i))
	}
	objs := map[string]*sim.Object{}
	want := map[string]bool{}
	c := sim.NewCluster(traced(sim.Config{Seed: 1}))
	c.StartProcess("node", "m0", func(ctx *sim.Context) {
		done := ctx.NewCond("done")
		ctx.Self().HandleEvent("touch", func(ctx *sim.Context, _ sim.Value) {
			for i, f := range fields {
				// Every name and key is built anew for each access.
				name := "obj" + strconv.Itoa(i%3)
				o := ctx.NamedObject(name)
				objs[name] = o
				o.Set(ctx, string([]byte(f)), sim.V(i))
				if got := o.Get(ctx, string([]byte(f))).Int(); got != i {
					t.Errorf("Get(%q) = %d, want %d", f, got, i)
				}
				want[fmt.Sprintf("heap:%s:%s%d.%s", ctx.PID(), name, o.ID(), f)] = true
				ctx.NamedCond("cv-" + name).Signal(ctx)
				want[fmt.Sprintf("cv:%s:cv-%s", ctx.PID(), name)] = true
			}
			done.Signal(ctx)
		})
		ctx.Emit("touch", sim.Value{})
		_, _ = done.Wait(ctx)
	})
	if out := c.Run(); !out.Completed() {
		t.Fatalf("run hung: %+v", out.Hung)
	}
	for i, f := range fields {
		if got := objs["obj"+strconv.Itoa(i%3)].Peek(f); got != i {
			t.Errorf("Peek(%q) = %v, want %d", f, got, i)
		}
	}
	tr := c.Trace()
	got := map[string]bool{}
	for _, r := range tr.Filter(trace.Query{Kinds: []trace.Kind{trace.KHeapWrite, trace.KHeapRead, trace.KSignal}}) {
		res := tr.Str(r.Res)
		if r.Kind == trace.KSignal {
			res = res[:strings.LastIndex(res, "/")] // the instance number
		}
		if !strings.HasSuffix(res, ":done") {
			got[res] = true
		}
	}
	if !maps.Equal(got, want) {
		t.Errorf("traced %d resource names, want %d; missing or extra:\n%s", len(got), len(want), symDiff(got, want))
	}
}

// symDiff lists the keys in exactly one of a and b, sorted.
func symDiff(a, b map[string]bool) string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, "+ "+k)
		}
	}
	for k := range b {
		if !a[k] {
			out = append(out, "- "+k)
		}
	}
	slices.Sort(out)
	return strings.Join(out, "\n")
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

// TestFullTaintsCountsCappedSets: an op whose dependence set has reached
// sim.MaxTaint counts in Outcome.FullTaints, and one just below it does not.
// One value gathers a read's taint per read and is then written, so the
// write's Taint holds one id per read, up to the cap.
func TestFullTaintsCountsCappedSets(t *testing.T) {
	for reads, want := range map[int]int{sim.MaxTaint - 1: 0, sim.MaxTaint + 6: 1} {
		_, out := runCluster(t, sim.Config{Seed: 1, Tracing: sim.TraceExhaustive}, func(ctx *sim.Context) {
			obj := ctx.NamedObject("o")
			var v sim.Value
			for range reads {
				v = sim.Derive(nil, v, obj.Get(ctx, "src"))
			}
			if got := len(v.Taint()); got != min(reads, sim.MaxTaint) {
				t.Errorf("after %d reads the value carries %d taints, want %d", reads, got, min(reads, sim.MaxTaint))
			}
			obj.Set(ctx, "dst", v)
		})
		if out.FullTaints != want {
			t.Errorf("a write after %d reads: FullTaints %d, want %d", reads, out.FullTaints, want)
		}
	}
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
	if !out.Completed() || err != nil || got != "echo:hi" {
		t.Fatalf("rpc: completed=%v err=%v got=%q", out.Completed(), err, got)
	}
}

func TestRPCStashedUntilHandlerRegistered(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, RPCFailFast: true})
	c.StartProcess("srv", "m0", func(ctx *sim.Context) {
		ctx.Sleep(150)
		ctx.Self().HandleRPC("Late", func(ctx *sim.Context, args []sim.Value) sim.Value {
			return sim.V("late-ok")
		})
		// Two calls wait in the stash with different arguments; each
		// handler must see its own.
		ctx.Self().HandleRPC("Join", func(ctx *sim.Context, args []sim.Value) sim.Value {
			return sim.V(args[0].Str() + args[1].Str())
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
	joined := map[string]string{}
	for _, cli := range []string{"a", "b"} {
		c.StartProcess("cli-"+cli, "m1", func(ctx *sim.Context) {
			v, err := ctx.Call("srv", "Join", sim.V(cli), sim.V(cli+"!"))
			if err != nil {
				t.Errorf("stashed call from %s: %v", cli, err)
			}
			joined[cli] = v.Str()
		})
	}
	c.Run()
	if got != "late-ok" {
		t.Fatalf("stashed rpc lost: %q", got)
	}
	if joined["a"] != "aa!" || joined["b"] != "bb!" {
		t.Fatalf("stashed calls answered %q and %q, want \"aa!\" and \"bb!\"", joined["a"], joined["b"])
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
	if !out.Completed() {
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
	if !out.Completed() || !survived {
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
	if !out.Completed() || iter < 2 {
		t.Fatalf("loop did not poll then exit (iters=%d completed=%v)", iter, out.Completed())
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
