package sim

import (
	"fcatch/internal/trace"
)

// SendOpt modifies Send behaviour.
type SendOpt func(*sendCfg)

type sendCfg struct {
	droppable bool
}

// Droppable marks the message as application-level droppable (Cassandra's
// droppable verbs): the fault injector may silently skip the send.
func Droppable() SendOpt { return func(c *sendCfg) { c.droppable = true } }

// Send delivers an asynchronous message to the process currently serving the
// target role (or an explicit PID containing '#'). The handler registered
// for the verb runs on the receiver's message-dispatcher thread and causally
// depends on this send.
//
// Faults: a kernel-level drop makes Send return ErrSocket (the analog of a
// SocketException at the sender); an application-level drop (droppable verbs
// only) makes Send silently succeed without delivery. Sends to a crashed or
// unknown destination return ErrSocket / ErrNoRoute.
func (ctx *Context) Send(target, verb string, payload Value, opts ...SendOpt) error {
	var cfg sendCfg
	for _, o := range opts {
		o(&cfg)
	}
	pid := ctx.c.resolve(target)
	var flags uint32
	if cfg.droppable {
		flags |= trace.FlagDroppable
	}

	c := ctx.c
	dst := c.nodes[pid]
	deliverable := dst != nil && !dst.crashed

	// Inlined Do pipeline (sends are hot; the effect is a plain flag, so no
	// closure is needed): trigger check → effect → record → trigger check →
	// scheduler step, with the same drop handling Do applies to sends.
	site := ctx.site()
	dropAction, dropped := c.checkTrigger(site, Before, true)
	sent := !dropped && deliverable
	emitFlags := flags
	if dropped {
		emitFlags |= trace.FlagDropped
	}
	id := c.tracer.emit(ctx.t, opSpec{
		Kind:   trace.KMsgSend,
		Aux:    verb,
		Target: pid,
		Taint:  payload.taint,
		Flags:  emitFlags,
		Site:   site,
	})
	if a, d := c.checkTrigger(site, After, true); d && !dropped {
		dropAction, dropped = a, d
	}
	ctx.t.yieldStep()
	if dropped {
		switch dropAction {
		case ActDropKernel:
			return ErrSocket
		case ActDropApp:
			if cfg.droppable {
				return nil // silently lost in the sending queue
			}
			return ErrSocket
		}
	}
	if pid == "" {
		return ErrNoRoute
	}
	if !sent {
		return ErrSocket
	}
	dst.msgQ.push(queuedItem{verb: verb, payload: payload, from: ctx.PID(), causor: id})
	return nil
}

// resolve maps a role name to its live PID; strings containing '#' are
// treated as explicit PIDs.
func (c *Cluster) resolve(target string) string {
	for i := 0; i < len(target); i++ {
		if target[i] == '#' {
			return target
		}
	}
	if id, ok := c.roleIdx[target]; ok {
		if n := c.roleService[id]; n != nil {
			return n.PID
		}
	}
	return ""
}
