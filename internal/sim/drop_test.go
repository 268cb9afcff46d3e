package sim_test

import (
	"testing"

	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// dropApp runs a sender "tx" that, at tick 50, makes one op against "srv":
// a send of verb "m" (op "send", or "droppable send" with sim.Droppable), or
// an RPC "echo" (ops "call" and "reply"). It returns the cluster, the run's
// outcome and the error the op returned.
func dropApp(t *testing.T, op string, plan *sim.FaultPlan) (*sim.Cluster, *sim.Outcome, error) {
	t.Helper()
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective, RPCClientTimeout: 200, Plan: plan})
	c.StartProcess("srv", "m0", func(ctx *sim.Context) {
		ctx.Self().HandleMsg("m", func(ctx *sim.Context, m sim.Message) {
			ctx.Cluster().SetFact("delivered", "true")
		})
		ctx.Self().HandleRPC("echo", func(ctx *sim.Context, args []sim.Value) sim.Value {
			ctx.Cluster().SetFact("served", "true")
			return args[0]
		})
		ctx.Sleep(500)
	})
	var err error
	c.StartProcess("tx", "m1", func(ctx *sim.Context) {
		ctx.Sleep(50)
		switch op {
		case "send":
			err = ctx.Send("srv", "m", sim.V(1))
		case "droppable send":
			err = ctx.Send("srv", "m", sim.V(1), sim.Droppable())
		default:
			var v sim.Value
			if v, err = ctx.Call("srv", "echo", sim.V("hi")); err == nil {
				ctx.Cluster().SetFact("reply", v.Str())
			}
		}
	})
	out := c.Run()
	if !out.Completed() {
		t.Fatalf("%s: run did not complete: %+v", op, out.Hung)
	}
	return c, out, err
}

// opRecord returns the record of the op a drop case targets.
func opRecord(t *testing.T, tr *trace.Trace, kind trace.Kind, aux string) *trace.Record {
	t.Helper()
	for i := range tr.Records {
		if r := &tr.Records[i]; r.Kind == kind && tr.Str(r.Aux) == aux {
			return r
		}
	}
	t.Fatalf("no %v record with aux %q", kind, aux)
	return nil
}

// TestDropsOnSendAndCall pins what each drop does to a send, an RPC call and
// an RPC reply, on either edge: the op returns ErrSocket (nil for an
// application-level drop of a droppable send; a dropped reply leaves the
// caller to its client timeout), nothing is delivered, the drop's firing
// names the sender, and only a drop before the op flags its record dropped.
func TestDropsOnSendAndCall(t *testing.T) {
	ops := []struct {
		op        string
		kind      trace.Kind
		aux       string
		victim    string
		delivered string // the fact set by a delivery the drop must stop
		err       func(action string) error
	}{
		{"send", trace.KMsgSend, "m", "tx#1", "delivered",
			func(string) error { return sim.ErrSocket }},
		{"droppable send", trace.KMsgSend, "m", "tx#1", "delivered",
			func(a string) error {
				if a == trace.ActionAppDrop {
					return nil
				}
				return sim.ErrSocket
			}},
		{"call", trace.KRPCCall, "echo", "tx#1", "served",
			func(string) error { return sim.ErrSocket }},
		{"reply", trace.KMsgSend, "rpc-reply:echo", "srv#1", "reply",
			func(string) error { return sim.ErrRPCTimeout }},
	}
	for _, o := range ops {
		c, _, err := dropApp(t, o.op, nil)
		if err != nil || c.FactStr(o.delivered) == "" {
			t.Fatalf("%s without faults: err = %v, %s = %q", o.op, err, o.delivered, c.FactStr(o.delivered))
		}
		clean := opRecord(t, c.Trace(), o.kind, o.aux)
		site := c.Trace().Str(clean.Site)
		for _, action := range []string{trace.ActionKernelDrop, trace.ActionAppDrop} {
			for _, when := range []string{trace.WhenBefore, trace.WhenAfter} {
				name := o.op + "/" + action + "/" + when
				plan := sim.NewScenarioPlan([]sim.FaultSpec{{Site: site, Occurrence: 1, When: when, Action: action}}, "", nil)
				c, out, err := dropApp(t, o.op, plan)
				if want := o.err(action); err != want {
					t.Errorf("%s: err = %v, want %v", name, err, want)
				}
				if got := c.FactStr(o.delivered); got != "" {
					t.Errorf("%s: delivered despite the drop (%s = %q)", name, o.delivered, got)
				}
				if o.op == "reply" && c.FactStr("served") == "" {
					t.Errorf("%s: the handler never ran", name)
				}
				r := opRecord(t, c.Trace(), o.kind, o.aux)
				if got, want := r.Flags&trace.FlagDropped != 0, when == trace.WhenBefore; got != want {
					t.Errorf("%s: FlagDropped = %v, want %v", name, got, want)
				}
				if r.Flags&^trace.FlagDropped != clean.Flags {
					t.Errorf("%s: flags %#x, want the fault-free %#x plus at most FlagDropped", name, r.Flags, clean.Flags)
				}
				f := out.FaultFirings
				if len(f) != 1 || f[0].Action != action || f[0].When != when || f[0].Victim != o.victim {
					t.Errorf("%s: firings = %+v, want one %s %s by %s", name, f, when, action, o.victim)
				}
			}
		}
	}
}
