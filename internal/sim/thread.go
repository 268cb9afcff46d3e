package sim

import (
	"fmt"
	"iter"
	"sync"

	"fcatch/internal/trace"
)

type threadState int

const (
	tsRunnable threadState = iota
	tsRunning
	tsBlocked
	tsDone
	tsKilled
)

// resumeMsg is what the scheduler hands a suspended thread.
type resumeMsg struct {
	kill     bool
	timedOut bool  // a timed wait expired
	err      error // error the wait returns (e.g. RPC failure)
	val      Value // value the wait returns (e.g. RPC reply)
}

// killedPanic unwinds a thread whose process crashed (or whose run ended).
type killedPanic struct{}

// appPanic carries an uncaught application exception up the thread stack.
type appPanic struct {
	kind  string
	site  SiteID
	taint []trace.OpID
}

// ctlFrame is one scope's control-dependence contribution.
type ctlFrame struct {
	label string
	// ctl is owned by this frame: only Guard extends it, through growTaints.
	ctl  []trace.OpID
	loop bool // the scope is a sync-loop body
	// prevStack is the thread's interned callstack before this scope was
	// pushed; popping the scope restores it.
	prevStack trace.StackID
}

// Thread is one cooperative thread of a simulated process.
type Thread struct {
	id   int
	node *Node
	name string

	daemon     bool
	handlerCtx bool // inside an RPC/message/event handler (or its callees)

	state       threadState
	blockSite   SiteID
	blockReason string
	blockObject string // what the thread waits on, appended to blockReason
	blockToken  int64  // invalidates stale timed-wait timers
	// waiting marks a non-daemon thread blocked in a Cond wait with no
	// timeout: nothing but a signal wakes it (Cluster.waiting counts them).
	waiting bool

	// fn is the body; car, the carrier running it from first resume to finish.
	fn  func(*Context)
	car *carrier

	// frame is the activation record (thread-start or handler-begin) ops
	// currently execute under; frameStack supports nested handler frames on
	// dispatcher threads.
	frame      trace.OpID
	frameStack []trace.OpID

	// stack is the thread's current interned callstack (thread name plus open
	// scope labels), maintained incrementally by pushScope/popScopesTo so
	// emitting a record copies one StackID instead of building a []string.
	// Stays NoStack when tracing is off.
	stack trace.StackID

	// scopes are the open scopes; the first two live inline in scopeBuf, so
	// a thread opens them without allocating.
	scopes   []ctlFrame
	scopeBuf [2]ctlFrame
	// ctlCache memoizes ctlTaints() across records: the merged control taints
	// of the open scopes change only when a scope is pushed, popped, or
	// guarded, which is far rarer than record emission. The cached slice is
	// rebuilt on invalidation and nothing is ever written within its length
	// (it may alias a scope's ctl, which growTaints extends only past its
	// len), so records may alias it.
	ctlCache []trace.OpID
	ctlDirty bool
	// ctlHist accumulates every control taint observed during the current
	// activation, surviving scope pops. RPC replies carry it, modelling the
	// static fact that branches inside a handler control its return value.
	// Owned by the thread like a frame's ctl: only Guard extends it, and
	// runHandlerFrame moves it aside and back without copying it elsewhere.
	ctlHist []trace.OpID

	// loopName is the active SyncLoop's name; hang reports use it so a
	// thread spinning in a polling loop is identifiable.
	loopName string

	// pendingWake is the payload the next resume delivers, staged by wake()
	// (or by kill) and consumed by pause.
	pendingWake resumeMsg

	// ctx is the handle the thread's function runs with; it lives in the
	// Thread so a spawn is one heap object, not two.
	ctx Context
}

// spawnThread creates a thread on node n and makes it runnable. causor is the
// op that created it (NoOp for process roots).
func (c *Cluster) spawnThread(n *Node, name string, fn func(*Context), causor trace.OpID, daemon, handlerCtx bool) *Thread {
	c.nextTID++
	t := &Thread{
		id:         c.nextTID,
		node:       n,
		name:       name,
		daemon:     daemon,
		handlerCtx: handlerCtx,
		state:      tsRunnable,
		fn:         fn,
		frame:      trace.NoOp,
	}
	t.scopes = t.scopeBuf[:0]
	t.ctx = Context{c: c, t: t}
	c.threads = append(c.threads, t)
	n.threads = append(n.threads, t)
	if !daemon {
		c.liveNonDaemon++
	}

	if w := c.tracer.trace; w != nil {
		t.stack = w.PushFrame(trace.NoStack, w.Intern(name))
	}
	t.frame = c.tracer.emit(t, opSpec{Kind: trace.KThreadStart, Aux: name, Causor: causor})
	return t
}

// run executes the thread's body on its carrier and finishes the thread by
// how the body ended. Any panic other than a kill or an app exception is a
// programming error in sim or app: it propagates out of Cluster.Run.
func (t *Thread) run() {
	c := t.ctx.c
	defer func() {
		switch p := recover().(type) {
		case nil:
			t.finish(c, tsDone)
		case killedPanic:
			t.finish(c, tsKilled)
		case appPanic:
			c.out.UncaughtExceptions = append(c.out.UncaughtExceptions,
				fmt.Sprintf("%s@%s in %s/%s", p.kind, c.SiteName(p.site), t.node.PID, t.name))
			t.finish(c, tsDone)
		default:
			panic(p)
		}
	}()
	t.fn(&t.ctx)
}

// finish emits the exit record and retires the thread.
func (t *Thread) finish(c *Cluster, st threadState) {
	t.state = st
	t.stopWaiting(c)
	if st == tsDone {
		c.tracer.emit(t, opSpec{Kind: trace.KThreadExit})
	}
	if !t.daemon {
		c.liveNonDaemon--
	}
	c.deadThreads++
}

// carrier is a coroutine that runs thread bodies one after another. It yields
// at each pause of the thread it carries and once more when that thread's
// body returns; the next resume after that starts the body of whichever
// thread took the carrier next.
type carrier struct {
	t     *Thread
	yield func(struct{}) bool
	next  func() (struct{}, bool)
}

// idleCarriers is shared by every cluster in the process: a carrier costs
// eleven allocations to create and none to reuse (DESIGN.md §11).
var idleCarriers struct {
	sync.Mutex
	list []*carrier
}

// takeCarrier hands out an idle carrier, creating one when none is idle.
func takeCarrier() *carrier {
	idleCarriers.Lock()
	defer idleCarriers.Unlock()
	if n := len(idleCarriers.list); n > 0 {
		k := idleCarriers.list[n-1]
		idleCarriers.list = idleCarriers.list[:n-1]
		return k
	}
	k := &carrier{}
	k.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		k.yield = yield
		for {
			k.t.run()
			k.t = nil
			yield(struct{}{})
		}
	})
	return k
}

// resume runs t until its next pause or until it finishes. A finished thread
// gives its carrier back; one whose body panicked does not, because iter.Pull
// ends the coroutine and re-raises the panic here.
func (t *Thread) resume() {
	if t.car == nil {
		t.car = takeCarrier()
		t.car.t = t
	}
	t.car.next()
	if !t.alive() {
		idleCarriers.Lock()
		idleCarriers.list = append(idleCarriers.list, t.car)
		idleCarriers.Unlock()
		t.car = nil
	}
}

// kill unwinds a live thread that is not running by resuming it with the kill
// payload (killedPanic); a thread that never ran has no stack and just ends.
func (c *Cluster) kill(t *Thread) {
	if t.car == nil {
		t.finish(c, tsKilled)
		return
	}
	t.pendingWake = resumeMsg{kill: true}
	t.resume()
}

// pause suspends the thread until the scheduler resumes it, then takes the
// staged wake payload. A kill payload unwinds the thread via panic.
func (t *Thread) pause() resumeMsg {
	t.car.yield(struct{}{})
	msg := t.pendingWake
	t.pendingWake = resumeMsg{}
	if msg.kill {
		panic(killedPanic{})
	}
	return msg
}

// yieldStep marks the thread runnable and gives up the processor for one
// step.
func (t *Thread) yieldStep() {
	t.state = tsRunnable
	t.pause()
}

// block suspends the thread in the blocked state until someone wakes it. A
// hang report names the reason as reason+object, joined only then.
func (t *Thread) block(reason, object string, site SiteID) resumeMsg {
	t.state = tsBlocked
	t.blockReason = reason
	t.blockObject = object
	t.blockSite = site
	return t.pause()
}

// wake marks a blocked thread runnable with a payload. It is a no-op for
// threads that are not blocked (e.g. already killed).
func (t *Thread) wake(msg resumeMsg) {
	if t.state != tsBlocked {
		return
	}
	t.state = tsRunnable
	t.pendingWake = msg
	t.stopWaiting(t.ctx.c)
}

// stopWaiting takes the thread out of the untimed waiters the quiescence rule
// counts.
func (t *Thread) stopWaiting(c *Cluster) {
	if t.waiting {
		t.waiting = false
		c.waiting--
	}
}

// alive reports whether the thread can still run.
func (t *Thread) alive() bool {
	return t.state == tsRunnable || t.state == tsBlocked || t.state == tsRunning
}

// ctlTaints returns the union of the control taints of all open scopes,
// rebuilt only when a scope operation invalidated the cache.
func (t *Thread) ctlTaints() []trace.OpID {
	if t.ctlDirty {
		t.ctlDirty = false
		var out []trace.OpID
		for i := range t.scopes {
			out = mergeTaints(out, t.scopes[i].ctl)
		}
		t.ctlCache = out
	}
	return t.ctlCache
}

// pushScope opens a control-dependence scope and extends the thread's
// interned callstack with its label.
func (t *Thread) pushScope(c *Cluster, fr ctlFrame) {
	fr.prevStack = t.stack
	if w := c.tracer.trace; w != nil {
		t.stack = w.PushFrame(t.stack, w.Intern(fr.label))
	}
	t.scopes = append(t.scopes, fr)
	if len(fr.ctl) > 0 {
		t.ctlDirty = true
	}
}

// popScopesTo closes scopes down to depth, restoring the callstack that was
// current before the lowest popped scope was pushed.
func (t *Thread) popScopesTo(depth int) {
	if len(t.scopes) <= depth {
		return
	}
	t.stack = t.scopes[depth].prevStack
	for i := depth; i < len(t.scopes); i++ {
		if len(t.scopes[i].ctl) > 0 {
			t.ctlDirty = true
			break
		}
	}
	t.scopes = t.scopes[:depth]
}
