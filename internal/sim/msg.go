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

// sendOptions applies opts; the config escapes to the options, so it is
// allocated only when there are any.
func sendOptions(opts []SendOpt) sendCfg {
	if len(opts) == 0 {
		return sendCfg{}
	}
	cfg := new(sendCfg)
	for _, o := range opts {
		o(cfg)
	}
	return *cfg
}

// Send delivers an asynchronous message to the process currently serving the
// target role (or an explicit PID containing '#'). The handler registered
// for the verb runs on the receiver's message-dispatcher thread and causally
// depends on this send.
//
// Faults: a kernel-level drop makes Send return ErrSocket (the analog of a
// SocketException at the sender); an application-level drop makes a send of
// a droppable verb silently succeed without delivery, and any other send
// return ErrSocket. Sends to a crashed or unknown destination return
// ErrSocket / ErrNoRoute.
func (ctx *Context) Send(target, verb string, payload Value, opts ...SendOpt) error {
	cfg := sendOptions(opts)
	pid := ctx.c.resolve(target)
	var flags uint32
	if cfg.droppable {
		flags |= trace.FlagDroppable
	}
	dst := ctx.c.nodes[pid]
	deliverable := dst != nil && !dst.crashed

	id, drop := ctx.Do(OpReq{
		Kind:   trace.KMsgSend,
		Aux:    verb,
		Target: pid,
		Taint:  payload.taint,
		Flags:  flags,
		IsSend: true,
	}, nil)
	if drop != "" {
		if drop == trace.ActionAppDrop && cfg.droppable {
			return nil // silently lost in the sending queue
		}
		return ErrSocket
	}
	if pid == "" {
		return ErrNoRoute
	}
	if !deliverable {
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
		if n := c.roles[id].service; n != nil {
			return n.PID
		}
	}
	return ""
}
