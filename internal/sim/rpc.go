package sim

import (
	"fcatch/internal/trace"
)

// Fixed sites for the RPC library internals. Real systems have these ops in
// library code (Hadoop's IPC client/server); giving them stable pseudo-sites
// makes every RPC call share one signal/wait site pair, so the detector
// reports the library-level hazard once ("hangs @ any RPC call", bug MR3).
const (
	SiteRPCClientWait = "sim/rpc.go:client-wait"
	SiteRPCReplySig   = "sim/rpc.go:reply-signal"
	SiteRPCReplySend  = "sim/rpc.go:reply-send"
)

// callState tracks one in-flight RPC on the caller node.
type callState struct {
	callID int64
	callee string
	done   *Cond
}

// RemoteError wraps an application exception thrown by an RPC handler and
// propagated back to the caller.
type RemoteError struct{ Kind string }

func (e *RemoteError) Error() string { return "remote: " + e.Kind }

// Call invokes an RPC method on the process serving the target role (or an
// explicit "#"-qualified PID) and blocks for the reply.
//
// The full paper-relevant anatomy is modelled: the call op is a causal
// operation (handler ops logically come from the caller node); the handler
// runs in its own thread on the callee; the reply is a message whose
// delivery signals a client-side wait. With Config.RPCClientTimeout == 0
// that wait is untimed — Hadoop-MR's library behaviour, bug MR3.
func (ctx *Context) Call(target, method string, args ...Value) (Value, error) {
	c := ctx.c
	pid := c.resolve(target)

	var dst *Node
	if pid != "" {
		dst = c.nodes[pid]
	}

	callOp, drop := ctx.Do(OpReq{
		Kind:   trace.KRPCCall,
		Aux:    method,
		Target: pid,
		Taint:  taintsOf(args...),
		IsSend: true,
	}, nil)
	if drop != "" {
		return Value{}, ErrSocket
	}
	if pid == "" {
		return Value{}, ErrNoRoute
	}
	if dst == nil || dst.crashed {
		return Value{}, ErrSocket
	}

	caller := ctx.t.node
	c.nextSeq++
	cs := &callState{callID: c.nextSeq, callee: pid, done: ctx.NewCond("rpc-reply")}
	caller.pendingCalls[cs.callID] = cs

	p := pendingRPC{method: method, args: args, callOp: callOp, callerPID: caller.PID, callID: cs.callID,
		servesDaemon: ctx.t.background()}
	if _, ok := dst.rpcHandlers[method]; ok {
		dst.spawnRPCHandler(p)
	} else {
		// The callee has not bound this service yet (its main has not run
		// that far); park the call like an unaccepted connection.
		dst.rpcStash[method] = append(dst.rpcStash[method], p)
	}

	// Client-side wait for the reply signal.
	var v Value
	var err error
	if c.cfg.RPCClientTimeout > 0 {
		v, err = cs.done.waitAt(ctx, c.cfg.RPCClientTimeout, c.siteRPCClientWait)
		if ErrWaitTimeout(err) {
			delete(caller.pendingCalls, cs.callID)
			return Value{}, ErrRPCTimeout
		}
	} else {
		v, err = cs.done.waitAt(ctx, 0, c.siteRPCClientWait)
	}
	return v, err
}

// spawnRPCHandler runs one incoming call in a fresh handler thread on n. The
// thread serves a daemon when the call's caller did.
func (n *Node) spawnRPCHandler(p pendingRPC) {
	h := n.rpcHandlers[p.method]
	t := n.c.spawnThread(n, h.name, func(hctx *Context) {
		defer hctx.Scope(h.name).End()
		var result Value
		var remoteErr error
		if err := hctx.Try(func() { result = h.fn(hctx, p.args) }); err != nil {
			remoteErr = &RemoteError{Kind: err.Kind}
		}
		// Branches taken inside the handler control its return value; the
		// reply inherits those taints so impact estimation can see that a
		// read "affects the return value of an RPC function" (§4.3.3).
		result = result.WithTaint(hctx.t.ctlHist...)
		// The reply message: its drop (or a crash right before it) makes the
		// client-side signal disappear.
		var deliverable bool
		replyOp, drop := hctx.Do(OpReq{
			Kind:   trace.KMsgSend,
			Aux:    "rpc-reply:" + p.method,
			Target: p.callerPID,
			Taint:  result.taint,
			Site:   hctx.c.siteRPCReplySend,
			IsSend: true,
		}, &OpEffects{Apply: func() {
			cn := hctx.c.nodes[p.callerPID]
			deliverable = cn != nil && !cn.crashed
		}})
		if drop != "" {
			return // reply lost on the wire; server moves on
		}
		if !deliverable {
			return
		}
		hctx.c.nodes[p.callerPID].replyQ.push(queuedItem{
			verb:    "rpc-reply",
			payload: result,
			causor:  replyOp,
			callID:  p.callID,
			err:     remoteErr,
		})
	}, p.callOp, false, true)
	if p.servesDaemon {
		t.servesDaemon = true
		n.c.serving++
	}
}
