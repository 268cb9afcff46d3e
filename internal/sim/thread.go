package sim

import (
	"fmt"

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

// resumeMsg is what the scheduler hands a parked thread.
type resumeMsg struct {
	kill     bool
	timedOut bool  // a timed wait expired
	err      error // delivered error (e.g. RPC failure)
	val      Value // delivered value (e.g. RPC reply)
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
	loop *loopState // non-nil when the scope is a sync-loop body
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

	state threadState
	// sem is the thread's park/unpark semaphore: one buffered token, sent by
	// whoever holds the scheduler baton, received by the parked thread. The
	// wake payload travels out-of-band in pendingWake (the channel send/receive
	// pair provides the happens-before edge), so a handoff moves zero bytes
	// through the channel.
	sem         chan struct{}
	blockSite   SiteID
	blockReason string
	blockToken  int64 // invalidates stale timed-wait timers
	killPending bool  // process crashed; scheduler will reap this thread

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

	scopes []ctlFrame
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

	// delivered holds the resumeMsg observed on the last wakeup (set by
	// pause, on the thread's own goroutine).
	delivered resumeMsg
	// pendingWake is the payload the next resume delivers, staged by wake()
	// (or by the kill/teardown paths) and consumed on the thread's goroutine.
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
		sem:        make(chan struct{}, 1),
		frame:      trace.NoOp,
	}
	t.ctx = Context{c: c, t: t}
	c.threads = append(c.threads, t)
	n.threads = append(n.threads, t)
	if !daemon {
		c.liveNonDaemon++
	}

	if w := c.tracer.trace; w != nil {
		t.stack = w.PushFrame(trace.NoStack, w.Intern(name))
	}
	start := c.tracer.emit(t, opSpec{
		Kind:   trace.KThreadStart,
		Aux:    name,
		Causor: causor,
	})
	t.frame = start

	go func() {
		msg := t.park() // wait for first schedule
		if msg.kill {
			t.finish(c, tsKilled)
			return
		}
		defer func() {
			if r := recover(); r != nil {
				switch p := r.(type) {
				case killedPanic:
					t.finish(c, tsKilled)
				case appPanic:
					c.out.UncaughtExceptions = append(c.out.UncaughtExceptions,
						fmt.Sprintf("%s@%s in %s/%s", p.kind, c.siteStr(p.site), t.node.PID, t.name))
					t.finish(c, tsDone)
				default:
					panic(r) // programming error in sim or app: surface it
				}
				return
			}
			t.finish(c, tsDone)
		}()
		fn(&t.ctx)
	}()
	return t
}

// park blocks until the baton holder unparks this thread, then takes the
// staged wake payload.
func (t *Thread) park() resumeMsg {
	<-t.sem
	msg := t.pendingWake
	t.pendingWake = resumeMsg{}
	return msg
}

// unpark hands the baton to t. Only the baton holder may call it, and t is
// always parked (or about to park), so the buffered send never blocks.
func (t *Thread) unpark() { t.sem <- struct{}{} }

// finish emits the exit record and hands the baton onward.
func (t *Thread) finish(c *Cluster, st threadState) {
	t.state = st
	if st == tsDone {
		c.tracer.emit(t, opSpec{Kind: trace.KThreadExit})
	}
	if t.killPending {
		// Died (self-crash) before the reaper delivered the kill.
		t.killPending = false
		c.killPendingN--
	}
	if !t.daemon {
		c.liveNonDaemon--
	}
	c.deadThreads++
	c.releaseBaton(t) // cannot pick self again: the thread is no longer alive
}

// pause parks the thread and hands the baton to the scheduler, which runs
// inline on this goroutine. When the scheduler picks this same thread again
// the pause returns without parking at all — the switch-free fast path. A
// kill payload unwinds the thread via panic.
func (t *Thread) pause(c *Cluster) resumeMsg {
	var msg resumeMsg
	if c.releaseBaton(t) {
		msg = t.pendingWake
		t.pendingWake = resumeMsg{}
	} else {
		msg = t.park()
	}
	if msg.kill {
		panic(killedPanic{})
	}
	t.delivered = msg
	return msg
}

// yieldStep marks the thread runnable and gives up the baton for one step.
func (t *Thread) yieldStep(c *Cluster) {
	t.state = tsRunnable
	t.pause(c)
}

// block parks the thread in the blocked state until someone wakes it.
func (t *Thread) block(c *Cluster, reason string, site SiteID) resumeMsg {
	t.state = tsBlocked
	t.blockReason = reason
	t.blockSite = site
	return t.pause(c)
}

// wake marks a blocked thread runnable with a payload. It is a no-op for
// threads that are not blocked (e.g. already killed).
func (t *Thread) wake(msg resumeMsg) {
	if t.state != tsBlocked {
		return
	}
	t.state = tsRunnable
	t.pendingWake = msg
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
