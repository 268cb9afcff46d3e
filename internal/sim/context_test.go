package sim_test

import (
	"testing"

	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

func recordsOf(c *sim.Cluster, kind trace.Kind) []*trace.Record {
	var out []*trace.Record
	tr := c.Trace()
	for i := range tr.Records {
		if tr.Records[i].Kind == kind {
			out = append(out, &tr.Records[i])
		}
	}
	return out
}

func TestThrowEmitsSinkWithTaints(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective})
	c.StartProcess("n", "m0", func(ctx *sim.Context) {
		v := sim.V("culprit").WithTaint(99)
		_ = ctx.Try(func() { ctx.Throw("TestException", v) })
	})
	c.Run()
	throws := recordsOf(c, trace.KThrow)
	if len(throws) != 1 || c.Trace().Str(throws[0].Aux) != "TestException" {
		t.Fatalf("throw records = %v", throws)
	}
	if len(throws[0].Taint) == 0 || throws[0].Taint[0] != 99 {
		t.Fatalf("throw taints = %v", throws[0].Taint)
	}
	catches := recordsOf(c, trace.KCatch)
	if len(catches) != 1 || catches[0].Site != throws[0].Site {
		t.Fatalf("catch records = %v", catches)
	}
}

func TestLogFatalRecordsSinkAndOutcome(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective})
	c.StartProcess("n", "m0", func(ctx *sim.Context) {
		ctx.LogFatal("doom", sim.V(1).WithTaint(7))
	})
	out := c.Run()
	if len(out.FatalLogs) != 1 || !out.Failed() {
		t.Fatalf("fatal outcome = %+v", out)
	}
	if out.FailureKind() != "fatal" {
		t.Fatalf("failure kind = %s", out.FailureKind())
	}
	recs := recordsOf(c, trace.KLogFatal)
	if len(recs) != 1 || recs[0].Taint[0] != 7 {
		t.Fatalf("fatal records = %v", recs)
	}
}

func TestStartServiceIsTracedSink(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective})
	c.StartProcess("n", "m0", func(ctx *sim.Context) {
		ctx.StartService("db", sim.V("state").WithTaint(3))
	})
	c.Run()
	recs := recordsOf(c, trace.KServiceStart)
	if len(recs) != 1 || c.Trace().Str(recs[0].Aux) != "db" || recs[0].Taint[0] != 3 {
		t.Fatalf("service-start records = %v", recs)
	}
}

func TestScopeLabelsAppearInCallstacks(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective})
	c.StartProcess("n", "m0", func(ctx *sim.Context) {
		defer ctx.Scope("outer")()
		func() {
			defer ctx.Scope("inner")()
			ctx.LogError("marker")
		}()
	})
	c.Run()
	recs := recordsOf(c, trace.KLogError)
	if len(recs) != 1 {
		t.Fatalf("log records = %v", recs)
	}
	st := c.Trace().StackLabels(recs[0].Stack)
	if len(st) != 3 || st[0] != "main" || st[1] != "outer" || st[2] != "inner" {
		t.Fatalf("stack = %v", st)
	}
}

func TestOutcomeFailureKinds(t *testing.T) {
	cases := []struct {
		out  sim.Outcome
		want string
	}{
		{sim.Outcome{Completed: true}, "ok"},
		{sim.Outcome{Completed: true, UncaughtExceptions: []string{"x"}}, "exception"},
		{sim.Outcome{Completed: true, FatalLogs: []string{"x"}}, "fatal"},
		{sim.Outcome{Completed: false}, "hang"},
		{sim.Outcome{Completed: false, StepBudgetHit: true}, "hang"},
	}
	for i, cse := range cases {
		if got := cse.out.FailureKind(); got != cse.want {
			t.Errorf("case %d: FailureKind = %q, want %q", i, got, cse.want)
		}
	}
}

func TestHandlerExceptionDoesNotKillDispatcher(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1})
	handled := 0
	c.StartProcess("rx", "m0", func(ctx *sim.Context) {
		ctx.Self().HandleMsg("boom", func(ctx *sim.Context, m sim.Message) {
			handled++
			ctx.Throw("HandlerException")
		})
		ctx.Sleep(300)
	})
	c.StartProcess("tx", "m1", func(ctx *sim.Context) {
		_ = ctx.Send("rx", "boom", sim.V(1))
		ctx.Sleep(50)
		_ = ctx.Send("rx", "boom", sim.V(2)) // the dispatcher must survive
	})
	out := c.Run()
	if handled != 2 {
		t.Fatalf("handled = %d; the dispatcher died after the first exception", handled)
	}
	if len(out.UncaughtExceptions) != 2 {
		t.Fatalf("uncaught = %v", out.UncaughtExceptions)
	}
}

func TestRestartRoleKeepsMachineAndRole(t *testing.T) {
	plan := sim.NewObservationPlan("svc", 40, map[string]int64{"svc": 30})
	c := sim.NewCluster(sim.Config{Seed: 1, Plan: plan})
	var machines []string
	c.StartProcess("svc", "the-machine", func(ctx *sim.Context) {
		machines = append(machines, ctx.Machine())
		ctx.Sleep(200)
	})
	c.Run()
	if len(machines) != 2 || machines[0] != "the-machine" || machines[1] != "the-machine" {
		t.Fatalf("incarnations ran on %v, want the same machine twice", machines)
	}
}
