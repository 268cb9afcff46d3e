package sim

import (
	"fcatch/internal/trace"
)

// SendOpt modifies Send behaviour; a Send's options are or-ed together.
type SendOpt uint8

const sendDroppable SendOpt = 1 << iota

// Droppable marks the message as application-level droppable (Cassandra's
// droppable verbs): the fault injector may silently skip the send.
func Droppable() SendOpt { return sendDroppable }

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
	var opt SendOpt
	for _, o := range opts {
		opt |= o
	}
	droppable := opt&sendDroppable != 0
	pid := ctx.c.resolve(target)
	var flags uint32
	if droppable {
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
		if drop == trace.ActionAppDrop && droppable {
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
