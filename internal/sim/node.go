package sim

import "fcatch/internal/trace"

// Node is one process of the simulated system. The paper uses node and
// process interchangeably (Section 2, Terminology); so do we. A restarted
// role is a *new* Node with a fresh PID on the same machine.
type Node struct {
	c       *Cluster
	PID     string
	Role    string
	Machine string
	roleID  int // dense index into the cluster's role tables

	// pidSym/machineSym are PID and Machine interned into the run's trace
	// once at node creation, so the tracer stamps them on every record
	// without a table lookup (NoSym when tracing is off).
	pidSym     trace.Sym
	machineSym trace.Sym

	crashed bool
	threads []*Thread

	nextObj int64
	objects map[int64]*Object

	rpcHandlers   map[string]rpcHandler
	msgHandlers   map[string]msgHandler
	eventHandlers map[string]eventHandler

	msgQ         *dispatchQueue
	eventQ       *dispatchQueue
	replyQ       *dispatchQueue
	pendingCalls map[int64]*callState

	// stashes hold items whose handler is not registered yet: processes
	// register handlers at the top of their main function, and anything
	// arriving earlier waits, like packets on a not-yet-accepted socket.
	msgStash   map[string][]queuedItem
	eventStash map[string][]queuedItem
	rpcStash   map[string][]pendingRPC

	namedObjs  map[string]*Object
	namedConds map[string]*Cond
}

// pendingRPC is a call that arrived before its handler was registered.
type pendingRPC struct {
	method    string
	args      []Value
	callOp    trace.OpID
	callerPID string
	callID    int64
}

// Handler registrations carry their frame/thread labels precomputed, so
// dispatching an item never concatenates strings.
type rpcHandler struct {
	fn   func(*Context, []Value) Value
	name string // "rpc:<method>" — handler thread name and scope label
}

type msgHandler struct {
	fn    func(*Context, Message)
	label string // "msg:<verb>"
}

type eventHandler struct {
	fn    func(*Context, Value)
	label string // "event:<type>"
}

func newNode(c *Cluster, pid, role, machine string) *Node {
	return &Node{
		c: c, PID: pid, Role: role, Machine: machine,
		pidSym: c.tracer.sym(pid), machineSym: c.tracer.sym(machine),
		objects:       make(map[int64]*Object),
		rpcHandlers:   make(map[string]rpcHandler),
		msgHandlers:   make(map[string]msgHandler),
		eventHandlers: make(map[string]eventHandler),
		msgQ:          &dispatchQueue{},
		eventQ:        &dispatchQueue{},
		replyQ:        &dispatchQueue{},
		pendingCalls:  make(map[int64]*callState),
		msgStash:      make(map[string][]queuedItem),
		eventStash:    make(map[string][]queuedItem),
		rpcStash:      make(map[string][]pendingRPC),
		namedObjs:     make(map[string]*Object),
		namedConds:    make(map[string]*Cond),
	}
}

// Crashed reports whether the process has crashed.
func (n *Node) Crashed() bool { return n.crashed }

// HandleRPC registers an RPC method handler. Each incoming call runs in its
// own handler thread whose operations causally come from the caller node.
// Calls that arrived before registration are dispatched now.
func (n *Node) HandleRPC(method string, fn func(*Context, []Value) Value) {
	n.rpcHandlers[method] = rpcHandler{fn: fn, name: "rpc:" + method}
	pend := n.rpcStash[method]
	delete(n.rpcStash, method)
	for _, p := range pend {
		n.spawnRPCHandler(p)
	}
}

// HandleMsg registers an asynchronous message handler; messages to this node
// are dispatched serially by its message-dispatcher thread. Messages that
// arrived before registration are re-queued now.
func (n *Node) HandleMsg(verb string, fn func(*Context, Message)) {
	n.msgHandlers[verb] = msgHandler{fn: fn, label: "msg:" + verb}
	for _, it := range n.msgStash[verb] {
		n.msgQ.push(it)
	}
	delete(n.msgStash, verb)
}

// HandleEvent registers an intra-node event handler; events are dispatched
// serially by the node's event-dispatcher thread (the ZKWatcherThread
// pattern of Figure 6). Events that arrived before registration are
// re-queued now.
func (n *Node) HandleEvent(typ string, fn func(*Context, Value)) {
	n.eventHandlers[typ] = eventHandler{fn: fn, label: "event:" + typ}
	for _, it := range n.eventStash[typ] {
		n.eventQ.push(it)
	}
	delete(n.eventStash, typ)
}

// Message is an asynchronous message handed to a HandleMsg handler.
type Message struct {
	From    string
	Verb    string
	Payload Value
}

// queuedItem is one unit of dispatcher work.
type queuedItem struct {
	verb    string
	payload Value
	from    string
	causor  trace.OpID
	flags   uint32
	callID  int64 // for rpc replies
	err     error // for rpc replies
}

// dispatchQueue is a FIFO consumed by one daemon thread. All access happens
// while one simulated thread runs. Consumed entries advance a head index
// instead of re-slicing, and the backing array is rewound whenever the queue
// drains, so steady-state dispatch reuses one slot array instead of
// allocating per item.
type dispatchQueue struct {
	items  []queuedItem
	head   int
	waiter *Thread
}

func (q *dispatchQueue) push(it queuedItem) {
	q.items = append(q.items, it)
	if q.waiter != nil {
		w := q.waiter
		q.waiter = nil
		w.wake(resumeMsg{})
	}
}

// pop blocks the calling dispatcher thread until an item is available.
func (q *dispatchQueue) pop(ctx *Context) queuedItem {
	for q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
		q.waiter = ctx.t
		ctx.t.block("dispatch-idle", NoSite)
	}
	it := q.items[q.head]
	q.items[q.head] = queuedItem{} // release payload references
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return it
}

// startSystemThreads launches the node's dispatcher daemons.
func (n *Node) startSystemThreads() {
	n.c.spawnThread(n, "msg-dispatcher", func(ctx *Context) {
		for {
			it := n.msgQ.pop(ctx)
			h, ok := n.msgHandlers[it.verb]
			if !ok {
				n.msgStash[it.verb] = append(n.msgStash[it.verb], it)
				continue
			}
			ctx.runHandlerFrame(h.label, it.causor, it.flags, func() {
				h.fn(ctx, Message{From: it.from, Verb: it.verb, Payload: it.payload})
			})
		}
	}, trace.NoOp, true, false)

	n.c.spawnThread(n, "event-dispatcher", func(ctx *Context) {
		for {
			it := n.eventQ.pop(ctx)
			h, ok := n.eventHandlers[it.verb]
			if !ok {
				n.eventStash[it.verb] = append(n.eventStash[it.verb], it)
				continue
			}
			ctx.runHandlerFrame(h.label, it.causor, it.flags, func() {
				h.fn(ctx, it.payload)
			})
		}
	}, trace.NoOp, true, false)

	n.c.spawnThread(n, "ipc-responder", func(ctx *Context) {
		for {
			it := n.replyQ.pop(ctx)
			cs, ok := n.pendingCalls[it.callID]
			if !ok {
				continue // caller gone (killed) or already failed
			}
			delete(n.pendingCalls, it.callID)
			ctx.runHandlerFrame("rpc-response", it.causor, 0, func() {
				// The signal that unblocks the RPC client wait. Its
				// disappearance (reply dropped, callee crashed pre-reply)
				// is exactly the crash-regular hazard of bug MR3.
				cs.done.signalInternal(ctx, it.payload, it.err, ctx.c.siteRPCReplySig)
			})
		}
	}, trace.NoOp, true, false)
}

// PostEvent enqueues an event on this node's event queue from an arbitrary
// context (used by storage watch notification). causor is the op the handler
// should causally depend on.
func (n *Node) PostEvent(typ string, payload Value, causor trace.OpID, flags uint32) {
	if n.crashed {
		return
	}
	n.eventQ.push(queuedItem{verb: typ, payload: payload, causor: causor, flags: flags})
}

// crash marks the process dead: its threads are killed, its heap disappears,
// pending calls to it fail (if the cluster is fail-fast), convict
// subscribers are notified, and restart policies fire. Local files survive —
// they belong to the machine, not the process. restartOverride, when
// non-nil, replaces the plan's RestartRoles entry for this victim (>= 0
// restarts after that delay, < 0 pins the process down).
func (c *Cluster) crashProcess(pid string, selfSite SiteID, restartOverride *int64) {
	n := c.nodes[pid]
	if n == nil || n.crashed {
		return
	}
	n.crashed = true
	c.out.Crashed = append(c.out.Crashed, pid)
	if c.roleService[n.roleID] == n {
		c.roleService[n.roleID] = nil
	}
	c.tracer.emitSystem(opSpec{Kind: trace.KCrash, Aux: pid, Site: selfSite})
	if c.tracer.trace != nil && c.tracer.trace.CrashedPID == "" {
		c.tracer.trace.CrashedPID = pid
		c.tracer.trace.CrashStep = c.clock
	}

	// Kill the process's threads now. The running thread is the one that
	// crashed its own process: it unwinds itself (checkTrigger).
	for _, t := range n.threads {
		if t.alive() && t != c.curThread {
			c.kill(t)
		}
	}

	// Fail or strand in-flight calls *to* this process.
	if c.cfg.RPCFailFast {
		for _, pn := range c.nodeList {
			for id, cs := range pn.pendingCalls {
				if cs.callee == pid {
					delete(pn.pendingCalls, id)
					cs.done.failInternal(ErrSocket)
				}
			}
		}
	}

	for _, hook := range c.crashHooks {
		hook(pid)
	}

	// Convict notifications (Cassandra's failure-detector listener).
	for _, sub := range c.convictSubs[n.Role] {
		if sn := c.nodes[sub]; sn != nil && !sn.crashed {
			sn.msgQ.push(queuedItem{
				verb:    "convict",
				from:    "failure-detector",
				payload: V(pid),
				causor:  trace.NoOp,
				flags:   trace.FlagRecoveryRoot,
			})
		}
	}

	// Plan-driven restart of the role (operator behaviour). A per-event
	// override wins over the plan's role map.
	delay, restart := int64(0), false
	if restartOverride != nil {
		if *restartOverride >= 0 {
			delay, restart = *restartOverride, true
		}
	} else if c.pendingPlan != nil {
		delay, restart = c.pendingPlan.RestartRoles[n.Role]
	}
	if restart {
		role := n.Role
		c.addTimer(c.clock+delay, nil, func() {
			if c.Lookup(role) == "" {
				c.RestartRole(role, trace.NoOp)
			}
		})
	}
}
