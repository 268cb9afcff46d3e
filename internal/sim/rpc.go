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

// callState is one RPC call, from the caller's Call to the reply that
// signals it: one heap object holds the reply latch, the arguments (up to two
// inline) and the handler thread. done, argBuf and handler are embedded
// because the slices of a Cond, the args and a Thread point into their own
// buffers; a callState is never copied. Its fields are sized to keep it in
// the 704-byte allocation class.
type callState struct {
	callID int64
	callOp trace.OpID
	caller *Node
	callee *Node

	done Cond // the reply latch the caller waits on

	args   []Value
	argBuf [2]Value

	// serve and replyAux are the registration of the handler the call was
	// dispatched to (rpcHandler.fn and .replyAux).
	serve    func(*Context, []Value) Value
	replyAux string
	// handler is the thread that runs serve; started at dispatch. Call sets
	// its servesDaemon bit beforehand when the caller is background.
	handler Thread
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
	cs := fromSpare(&c.spare.calls)
	cs.callID, cs.callOp, cs.caller, cs.callee = c.nextSeq, callOp, caller, dst
	cs.done.init(caller, "rpc-reply")
	if len(args) <= len(cs.argBuf) {
		cs.args = cs.argBuf[:copy(cs.argBuf[:], args)]
	} else {
		cs.args = append([]Value(nil), args...)
	}
	cs.handler.servesDaemon = ctx.t.background()
	caller.pendingCalls[cs.callID] = cs

	if h, ok := dst.rpcHandlers[method]; ok {
		dst.spawnRPCHandler(cs, h)
	} else {
		// The callee has not bound this service yet (its main has not run
		// that far); park the call like an unaccepted connection.
		if dst.rpcStash == nil {
			dst.rpcStash = make(map[string][]*callState)
		}
		dst.rpcStash[method] = append(dst.rpcStash[method], cs)
	}

	// Client-side wait for the reply signal; a timeout of 0 waits untimed.
	v, err := cs.done.waitAt(ctx, c.cfg.RPCClientTimeout, c.siteRPCClientWait)
	if ErrWaitTimeout(err) {
		delete(caller.pendingCalls, cs.callID)
		return Value{}, ErrRPCTimeout
	}
	return v, err
}

// spawnRPCHandler runs one incoming call, dispatched to h, in its handler
// thread on n. The thread serves a daemon when the call's caller did.
func (n *Node) spawnRPCHandler(cs *callState, h rpcHandler) {
	cs.serve, cs.replyAux = h.fn, h.replyAux
	t := &cs.handler
	t.call = cs
	n.c.startThread(t, n, h.name, serveRPC, cs.callOp, false, true)
	if t.servesDaemon {
		n.c.serving++
	}
}

// serveRPC is the body of every RPC handler thread: it runs the handler on
// the call's arguments and sends the reply back to the caller.
func serveRPC(hctx *Context) {
	cs := hctx.t.call
	defer hctx.Scope(hctx.t.name).End()
	var result Value
	var remoteErr error
	if err := hctx.Try(func() { result = cs.serve(hctx, cs.args) }); err != nil {
		remoteErr = &RemoteError{Kind: err.Kind}
	}
	// Branches taken inside the handler control its return value; the
	// reply inherits those taints so impact estimation can see that a
	// read "affects the return value of an RPC function" (§4.3.3).
	result.taint = mergeTaints(result.taint, hctx.t.ctlHist)
	// The reply message: its drop (or a crash right before it) makes the
	// client-side signal disappear.
	var deliverable bool
	replyOp, drop := hctx.Do(OpReq{
		Kind:   trace.KMsgSend,
		Aux:    cs.replyAux,
		Target: cs.caller.PID,
		Taint:  result.taint,
		Site:   hctx.c.siteRPCReplySend,
		IsSend: true,
	}, &OpEffects{Apply: func() error {
		deliverable = !cs.caller.crashed
		return nil
	}})
	if drop != "" {
		return // reply lost on the wire; server moves on
	}
	if !deliverable {
		return
	}
	cs.caller.replyQ.push(queuedItem{
		verb:    "rpc-reply",
		payload: result,
		causor:  replyOp,
		callID:  cs.callID,
		err:     remoteErr,
	})
}
