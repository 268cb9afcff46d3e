package sim_test

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// twoNodeApp is a small deterministic protocol used by the fault tests:
// a producer sends N pings to a consumer, which acks each.
func twoNodeApp(pings int) func(c *sim.Cluster) {
	return func(c *sim.Cluster) {
		c.StartProcess("consumer", "m0", func(ctx *sim.Context) {
			ctx.Self().HandleMsg("ping", func(ctx *sim.Context, m sim.Message) {
				obj := ctx.NamedObject("stats")
				n := obj.Get(ctx, "count")
				obj.Set(ctx, "count", sim.V(n.Int()+1))
				_ = ctx.Send(m.From, "ack", m.Payload)
			})
			ctx.Sleep(int64(pings*40 + 200))
		})
		c.StartProcess("producer", "m1", func(ctx *sim.Context) {
			ctx.Self().HandleMsg("ack", func(ctx *sim.Context, m sim.Message) {})
			for i := 0; i < pings; i++ {
				_ = ctx.Send("consumer", "ping", sim.V(i))
				ctx.Sleep(25)
			}
		})
	}
}

// crashes lists the processes a traced run crashed, injected or cascading,
// in crash order: the victims of its KCrash records.
func crashes(tr *trace.Trace) []string {
	var pids []string
	for i := range tr.Records {
		if r := &tr.Records[i]; r.Kind == trace.KCrash {
			pids = append(pids, tr.Str(r.Aux))
		}
	}
	return pids
}

// TestCrashAtStepKillsProcess: a step event crashes its target, and its
// firing records the crash it applied. A step event is a node crash whatever
// action a plan built without ValidateScenario gives it.
func TestCrashAtStepKillsProcess(t *testing.T) {
	for _, act := range trace.ActionNames() {
		crashAtStep(t, act)
	}
}

func crashAtStep(t *testing.T, action string) {
	t.Helper()
	plan := sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: 100, Action: action}}, "producer", nil)
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective, Plan: plan})
	twoNodeApp(20)(c)
	out := c.Run()
	tr := c.Trace()
	if got := crashes(tr); len(got) != 1 || got[0] != "producer#1" {
		t.Fatalf("action %s: crashed = %v", action, got)
	}
	if f := out.FaultFirings; len(f) != 1 || f[0].Victim != "producer#1" || f[0].Action != trace.ActionNodeCrash {
		t.Fatalf("action %s: firings = %+v, want the producer#1 node crash", action, f)
	}
	// No producer op may appear after the crash record's step.
	crashStep := tr.Filter(trace.Query{Kinds: []trace.Kind{trace.KCrash}})[0].TS
	for i := range tr.Records {
		r := &tr.Records[i]
		if tr.Str(r.PID) == "producer#1" && r.TS > crashStep && r.Kind != trace.KThreadExit {
			t.Fatalf("producer op after crash: %s (crash at %d)", tr.Format(r), crashStep)
		}
	}
	if !out.Completed() {
		t.Fatalf("consumer should finish after producer death: %+v", out.Hung)
	}
}

func TestRestartRolesSpawnsNewIncarnation(t *testing.T) {
	plan := sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: 100}}, "producer", map[string]int64{"producer": 60})
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective, Plan: plan})
	twoNodeApp(6)(c)
	out := c.Run()
	if !out.Completed() {
		t.Fatalf("run hung: %+v", out.Hung)
	}
	if pids := c.Trace().StartedPIDs(); !slices.Contains(pids, "producer#2") {
		t.Fatalf("no producer#2 in trace pids: %v", pids)
	}
	if c.Lookup("producer") != "producer#2" {
		t.Fatalf("role points at %q", c.Lookup("producer"))
	}
}

func TestSendToCrashedProcessFails(t *testing.T) {
	var sendErr error
	c := sim.NewCluster(sim.Config{Seed: 1, Plan: sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: 5}}, "victim", nil)})
	c.StartProcess("victim", "m0", func(ctx *sim.Context) { ctx.Sleep(400) })
	c.StartProcess("sender", "m1", func(ctx *sim.Context) {
		ctx.Sleep(200) // the victim is long dead by now
		sendErr = ctx.Send("victim#1", "x", sim.V(1))
	})
	c.Run()
	if sendErr != sim.ErrSocket {
		t.Fatalf("send to crashed pid: %v, want ErrSocket", sendErr)
	}
}

func TestRPCFailFastOnCalleeCrash(t *testing.T) {
	plan := sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: 150}}, "srv", nil)
	c := sim.NewCluster(sim.Config{Seed: 1, RPCFailFast: true, Plan: plan})
	c.StartProcess("srv", "m0", func(ctx *sim.Context) {
		ctx.Self().HandleRPC("Slow", func(ctx *sim.Context, args []sim.Value) sim.Value {
			ctx.Sleep(500) // still in flight when the crash lands
			return sim.V("late")
		})
		ctx.Sleep(600)
	})
	var err error
	c.StartProcess("cli", "m1", func(ctx *sim.Context) {
		ctx.Sleep(100)
		_, err = ctx.Call("srv", "Slow")
	})
	out := c.Run()
	if !out.Completed() {
		t.Fatalf("caller hung despite fail-fast: %+v", out.Hung)
	}
	if err != sim.ErrSocket {
		t.Fatalf("in-flight call error = %v, want ErrSocket", err)
	}
}

func TestRPCWithoutFailFastHangsOnCalleeCrash(t *testing.T) {
	plan := sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: 150}}, "srv", nil)
	c := sim.NewCluster(sim.Config{Seed: 1, RPCFailFast: false, MaxSteps: 5_000, Plan: plan})
	c.StartProcess("srv", "m0", func(ctx *sim.Context) {
		ctx.Self().HandleRPC("Slow", func(ctx *sim.Context, args []sim.Value) sim.Value {
			ctx.Sleep(500)
			return sim.V("late")
		})
		ctx.Sleep(600)
	})
	c.StartProcess("cli", "m1", func(ctx *sim.Context) {
		ctx.Sleep(100)
		_, _ = ctx.Call("srv", "Slow")
	})
	out := c.Run()
	if out.Completed() {
		t.Fatal("caller should hang forever without fail-fast (bug MR3's library behaviour)")
	}
}

func TestRPCClientTimeout(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, RPCClientTimeout: 150})
	c.StartProcess("srv", "m0", func(ctx *sim.Context) {
		ctx.Self().HandleRPC("Slow", func(ctx *sim.Context, args []sim.Value) sim.Value {
			ctx.Sleep(1_000)
			return sim.V("late")
		})
		ctx.Sleep(1_200)
	})
	var err error
	c.StartProcess("cli", "m1", func(ctx *sim.Context) {
		_, err = ctx.Call("srv", "Slow")
	})
	out := c.Run()
	if !out.Completed() {
		t.Fatalf("hung: %+v", out.Hung)
	}
	if err != sim.ErrRPCTimeout {
		t.Fatalf("err = %v, want ErrRPCTimeout", err)
	}
}

func TestTriggerCrashBeforeOp(t *testing.T) {
	// First observe where the marker send happens.
	build := func(plan *sim.FaultPlan) (*sim.Cluster, *sim.Outcome) {
		c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective, Plan: plan})
		c.StartProcess("rx", "m0", func(ctx *sim.Context) {
			ctx.Self().HandleMsg("marker", func(ctx *sim.Context, m sim.Message) {
				ctx.Cluster().SetFact("got-marker", "true")
			})
			ctx.Sleep(400)
		})
		c.StartProcess("tx", "m1", func(ctx *sim.Context) {
			ctx.Sleep(50)
			_ = ctx.Send("rx", "marker", sim.V(1))
		})
		return c, c.Run()
	}
	obs, _ := build(nil)
	var site string
	for i := range obs.Trace().Records {
		r := &obs.Trace().Records[i]
		if r.Kind == trace.KMsgSend && obs.Trace().Str(r.Aux) == "marker" {
			site = obs.Trace().Str(r.Site)
		}
	}
	if site == "" {
		t.Fatal("marker send not traced")
	}

	plan := sim.NewScenarioPlan([]sim.FaultSpec{{
		Site: site, Occurrence: 1, When: trace.WhenBefore, Action: trace.ActionNodeCrash,
	}}, "", nil)
	c, _ := build(plan)
	if c.FactStr("got-marker") != "" {
		t.Fatal("crash-before-send did not suppress the send")
	}
	if got := crashes(c.Trace()); len(got) != 1 || got[0] != "tx#1" {
		t.Fatalf("crashed = %v, want tx#1", got)
	}

	// Kernel drop: the sender survives, the message is lost.
	plan = sim.NewScenarioPlan([]sim.FaultSpec{{
		Site: site, Occurrence: 1, When: trace.WhenBefore, Action: trace.ActionKernelDrop,
	}}, "", nil)
	c, out := build(plan)
	if c.FactStr("got-marker") != "" {
		t.Fatal("kernel drop did not suppress delivery")
	}
	if got := crashes(c.Trace()); len(got) != 0 {
		t.Fatalf("kernel drop crashed something: %v", got)
	}
	if f := out.FaultFirings; len(f) != 1 || f[0].Action != "kernel-drop" || f[0].Victim != "tx#1" {
		t.Fatalf("firings = %+v, want one kernel drop of tx#1's send", f)
	}
}

func TestTriggerOccurrenceCounting(t *testing.T) {
	build := func(plan *sim.FaultPlan) *sim.Cluster {
		c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective, Plan: plan})
		c.StartProcess("rx", "m0", func(ctx *sim.Context) {
			ctx.Self().HandleMsg("n", func(ctx *sim.Context, m sim.Message) {
				ctx.Cluster().SetFact("last", m.Payload.Str())
			})
			ctx.Sleep(500)
		})
		c.StartProcess("tx", "m1", func(ctx *sim.Context) {
			for i := 1; i <= 5; i++ {
				_ = ctx.Send("rx", "n", sim.V(i))
				ctx.Sleep(30)
			}
		})
		c.Run()
		return c
	}
	c := build(nil)
	var site string
	for i := range c.Trace().Records {
		r := &c.Trace().Records[i]
		if r.Kind == trace.KMsgSend && c.Trace().Str(r.Aux) == "n" {
			site = c.Trace().Str(r.Site)
		}
	}
	// Crash the sender right before the 3rd send: only 1 and 2 arrive.
	c = build(sim.NewScenarioPlan([]sim.FaultSpec{{
		Site: site, Occurrence: 3, When: trace.WhenBefore, Action: trace.ActionNodeCrash,
	}}, "", nil))
	if got := c.FactStr("last"); got != "2" {
		t.Fatalf("last received = %q, want 2", got)
	}
}

func TestConvictSubscription(t *testing.T) {
	plan := sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: 80}}, "worker", nil)
	c := sim.NewCluster(sim.Config{Seed: 1, Plan: plan})
	c.StartProcess("worker", "m0", func(ctx *sim.Context) { ctx.Sleep(1_000) })
	boss := c.StartProcess("boss", "m1", func(ctx *sim.Context) {
		ctx.Self().HandleMsg("convict", func(ctx *sim.Context, m sim.Message) {
			ctx.Cluster().SetFact("dead", m.Payload.Str())
		})
		ctx.Sleep(300)
	})
	c.SubscribeConvict("worker", boss)
	c.Run()
	if got := c.FactStr("dead"); got != "worker#1" {
		t.Fatalf("convict payload = %q", got)
	}
}

// Determinism is the simulator's core contract: identical configuration
// yields an identical trace. Checked property-style across seeds.
func TestDeterminismAcrossSeeds(t *testing.T) {
	runOnce := func(seed int64) string {
		c := sim.NewCluster(sim.Config{Seed: seed, Tracing: sim.TraceSelective})
		twoNodeApp(8)(c)
		c.Run()
		s := ""
		for i := range c.Trace().Records {
			s += c.Trace().Format(&c.Trace().Records[i]) + "\n"
		}
		return s
	}
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		seed %= 1000
		return runOnce(seed) == runOnce(seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestValueHelpers(t *testing.T) {
	cases := []struct {
		v sim.Value
		b bool
		i int
		s string
	}{
		{sim.V(nil), false, 0, ""},
		{sim.V(true), true, 0, "true"},
		{sim.V(0), false, 0, "0"},
		{sim.V(17), true, 17, "17"},
		{sim.V(int64(9)), true, 9, "9"},
		{sim.V(""), false, 0, ""},
		{sim.V("x"), true, 0, "x"},
	}
	for i, c := range cases {
		if c.v.Bool() != c.b || c.v.Int() != c.i || c.v.Str() != c.s {
			t.Errorf("case %d: Bool/Int/Str = %v/%d/%q, want %v/%d/%q",
				i, c.v.Bool(), c.v.Int(), c.v.Str(), c.b, c.i, c.s)
		}
	}
}

func TestDeriveMergesTaints(t *testing.T) {
	a := sim.V(1).WithTaint(3, 1)
	b := sim.V(2).WithTaint(2, 3)
	d := sim.Derive("x", a, b)
	got := d.Taint()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("merged taints = %v, want [1 2 3]", got)
	}
}

func TestTaintCapIsBounded(t *testing.T) {
	f := func(ids []int64) bool {
		v := sim.V(0)
		for _, id := range ids {
			if id < 0 {
				id = -id
			}
			v = v.WithTaint(trace.OpID(id + 1))
		}
		taints := v.Taint()
		if len(taints) > 64 {
			return false
		}
		for i := 1; i < len(taints); i++ {
			if taints[i] <= taints[i-1] {
				return false // must stay sorted and deduplicated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultVictim: who a crash event kills, by anchor × the event's Target
// × the plan's crash target. A step crash with no Target kills the plan's
// crash target; a relative one re-crashes the last victim's role, and a
// site one the process executing the op, whatever the plan's target. An
// explicit role or PID Target wins everywhere.
func TestDefaultVictim(t *testing.T) {
	app := func(c *sim.Cluster) {
		c.StartProcess("sender", "m0", func(ctx *sim.Context) {
			for i := 0; i < 10; i++ {
				ctx.Sleep(20)
				_ = ctx.Send("sink", "tick", sim.V(i))
			}
		})
		c.StartProcess("sink", "m1", func(ctx *sim.Context) {
			ctx.Self().HandleMsg("tick", func(ctx *sim.Context, m sim.Message) {})
			ctx.Sleep(400)
		})
		c.StartProcess("bystander", "m2", func(ctx *sim.Context) { ctx.Sleep(400) })
	}
	run := func(plan *sim.FaultPlan) (*sim.Cluster, *sim.Outcome) {
		c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective, Plan: plan})
		app(c)
		return c, c.Run()
	}
	c, _ := run(nil)
	var site string
	for i := range c.Trace().Records {
		if r := &c.Trace().Records[i]; r.Kind == trace.KMsgSend && c.Trace().Str(r.Aux) == "tick" {
			site = c.Trace().Str(r.Site)
			break
		}
	}
	if site == "" {
		t.Fatal("tick send not traced")
	}

	restart := int64(10)
	anchors := []struct {
		name string
		// scenario builds the events; the one under test is the last.
		scenario func(target string) []sim.FaultSpec
		// byDefault is the victims when the event under test has no Target,
		// with the plan's crash target set ("sink") and empty.
		byDefault, byDefaultNoPlanTarget []string
	}{
		{
			name:                  "step",
			scenario:              func(tg string) []sim.FaultSpec { return []sim.FaultSpec{{CrashStep: 30, Target: tg}} },
			byDefault:             []string{"sink#1"},
			byDefaultNoPlanTarget: []string{""},
		},
		{
			name: "relative",
			scenario: func(tg string) []sim.FaultSpec {
				return []sim.FaultSpec{
					{CrashStep: 30, Target: "sender", Restart: &restart},
					{Delay: 40, Target: tg},
				}
			},
			byDefault:             []string{"sender#1", "sender#2"},
			byDefaultNoPlanTarget: []string{"sender#1", "sender#2"},
		},
		{
			name: "site",
			scenario: func(tg string) []sim.FaultSpec {
				return []sim.FaultSpec{{Site: site, Occurrence: 1, When: trace.WhenBefore, Action: trace.ActionNodeCrash, Target: tg}}
			},
			byDefault:             []string{"sender#1"},
			byDefaultNoPlanTarget: []string{"sender#1"},
		},
	}
	for _, a := range anchors {
		for _, target := range []string{"", "bystander", "bystander#1"} {
			for _, planTarget := range []string{"sink", ""} {
				want := a.byDefault
				if planTarget == "" {
					want = a.byDefaultNoPlanTarget
				}
				if target != "" {
					want = append(append([]string(nil), want[:len(want)-1]...), "bystander#1")
				}
				_, out := run(sim.NewScenarioPlan(a.scenario(target), planTarget, nil))
				var got []string
				for _, f := range out.FaultFirings {
					got = append(got, f.Victim)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s event, target %q, plan target %q: victims %q, want %q", a.name, target, planTarget, got, want)
				}
			}
		}
	}
}
