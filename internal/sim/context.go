package sim

import (
	"fmt"

	"fcatch/internal/trace"
)

// Context is the handle application code uses for every interaction with the
// simulated world. Each thread has its own Context; it is the instrumentation
// point where FCatch's tracer and the fault injector observe operations.
type Context struct {
	c *Cluster
	t *Thread
}

// Cluster returns the cluster this context belongs to.
func (ctx *Context) Cluster() *Cluster { return ctx.c }

// PID returns the current process id.
func (ctx *Context) PID() string { return ctx.t.node.PID }

// Role returns the current process role.
func (ctx *Context) Role() string { return ctx.t.node.Role }

// Machine returns the machine the current process runs on.
func (ctx *Context) Machine() string { return ctx.t.node.Machine }

// Self returns the current node.
func (ctx *Context) Self() *Node { return ctx.t.node }

// Scope pushes a callstack label (and a control-dependence scope) and
// returns the handle that pops it; use `defer ctx.Scope("name").End()`. The
// handle is a value, so opening a scope allocates nothing.
func (ctx *Context) Scope(label string) Scope {
	ctx.t.pushScope(ctx.c, ctlFrame{label: label})
	return Scope{t: ctx.t, depth: len(ctx.t.scopes)}
}

// Scope is an open scope; End pops it together with any scope opened inside
// it and left open.
type Scope struct {
	t     *Thread
	depth int
}

// End pops the scope.
func (s Scope) End() { s.t.popScopesTo(s.depth - 1) }

// Guard records that subsequent operations in the current scope are
// control-dependent on v (the dynamic stand-in for the paper's WALA
// control-dependence analysis) and returns v's truthiness.
func (ctx *Context) Guard(v Value) bool {
	if len(ctx.t.scopes) == 0 {
		ctx.t.pushScope(ctx.c, ctlFrame{label: "fn"})
	}
	top := &ctx.t.scopes[len(ctx.t.scopes)-1]
	if len(v.taint) > 0 {
		top.ctl = growTaints(top.ctl, v.taint)
		ctx.t.ctlHist = growTaints(ctx.t.ctlHist, v.taint)
		ctx.t.ctlDirty = true
	}
	return v.Bool()
}

// Yield gives up the CPU for one scheduler step.
func (ctx *Context) Yield() { ctx.t.yieldStep() }

// Sleep blocks the thread for the given number of logical ticks.
func (ctx *Context) Sleep(ticks int64) {
	if ticks <= 0 {
		ctx.Yield()
		return
	}
	ctx.t.blockToken++
	ctx.c.addTimer(ctx.c.clock+ticks, ctx.t, nil)
	ctx.t.block("sleep", "", NoSite)
}

// Now reads the system clock; the returned value is tainted by a time-read
// op, which is how the detectors see time-based loop exits (Section 4.2.2).
func (ctx *Context) Now() Value {
	id := ctx.c.tracer.emit(ctx.t, OpReq{Kind: trace.KTimeRead, Site: ctx.site()})
	v := V(ctx.c.clock)
	if id != trace.NoOp {
		v = v.WithTaint(id)
	}
	return v
}

// site computes the current static op ID if this run needs sites.
func (ctx *Context) site() SiteID {
	if !ctx.c.needSites() {
		return NoSite
	}
	site := ctx.c.callsite()
	ctx.reached(site)
	return site
}

// reached records, for the stall rule, that the thread executes an op at
// site: the first non-daemon op there is progress.
func (ctx *Context) reached(site SiteID) {
	c := ctx.c
	if c.cfg.StallPicks == 0 || ctx.t.daemon {
		return
	}
	if !c.siteSeen[site] {
		c.siteSeen[site] = true
		c.endStretch()
	}
}

// OpReq describes one operation for the generic op pipeline: trigger check →
// effect → record → trigger check → scheduler step. Storage substrates and
// the built-in ops all go through Do, and the tracer records the same value:
// the op layer fills it with the sim's dense site id plus plain strings, and
// the tracer interns them into the run's trace, so application code and
// substrates never touch symbol tables. ResSym, when non-nil, points at the
// emitting object's cached trace symbol for Res: the first kept emit interns
// Res and writes the Sym back through the pointer, and every later emit skips
// the string table. Heap fields and conds leave Res empty and name it
// through resOf, so a run that keeps no trace never builds their names.
type OpReq struct {
	Kind   trace.Kind
	Res    string
	ResSym *trace.Sym // optional per-resource Sym cache slot
	resOf  resNamer   // names Res lazily
	Aux    string
	Target string
	Src    trace.OpID
	Causor trace.OpID
	Flags  uint32
	Taint  []trace.OpID
	Site   SiteID // optional override; computed if NoSite
	IsSend bool
}

// OpEffects are an op's callbacks. They travel beside the OpReq, not in it:
// Do stores the request's Res and Taint in the trace, and escape analysis
// does not track struct fields separately, so a callback inside OpReq would
// leak with them and every closure literal passed to Do (with every variable
// it captures) would go to the heap. Do never keeps fx, so a caller's
// &OpEffects{...} and its closures stay on the caller's stack.
type OpEffects struct {
	// Apply performs the op's semantic effect (may be nil for pure reads)
	// and returns the op's error: Do flags a failed op's record FlagFailed.
	Apply func() error
	// PostEmit runs after the record is emitted but before the scheduler
	// step, i.e. before the thread pauses. Substrates use it
	// to publish the op's ID (define-use bookkeeping) atomically with the
	// op's effect.
	PostEmit func(id trace.OpID)
}

// Do runs one operation through the pipeline, with fx's callbacks (fx may be
// nil), and returns its op ID (NoOp if untraced) plus the fault-injection
// drop that hit it (trace.ActionKernelDrop or trace.ActionAppDrop; "" when
// none did). Only a send (req.IsSend) is ever dropped; a drop on the before
// edge also suppresses the effect and flags the record FlagDropped.
func (ctx *Context) Do(req OpReq, fx *OpEffects) (id trace.OpID, drop string) {
	site := req.Site
	if site == NoSite {
		site = ctx.site()
	} else {
		ctx.reached(site)
	}
	var none OpEffects
	if fx == nil {
		fx = &none
	}
	drop = ctx.c.checkTrigger(site, trace.WhenBefore, req.IsSend)
	if drop == "" && fx.Apply != nil && fx.Apply() != nil {
		req.Flags |= trace.FlagFailed
	}
	if drop != "" {
		req.Flags |= trace.FlagDropped
	}
	req.Site = site
	id = ctx.c.tracer.emit(ctx.t, req)
	if fx.PostEmit != nil {
		fx.PostEmit(id)
	}
	if after := ctx.c.checkTrigger(site, trace.WhenAfter, req.IsSend); drop == "" {
		drop = after
	}
	ctx.t.yieldStep()
	return id, drop
}

// Go spawns a new thread on the current node. Its operations causally depend
// on this create op.
func (ctx *Context) Go(name string, fn func(*Context)) {
	ctx.goThread(name, fn, false)
}

// GoDaemon spawns a background thread that does not keep the workload alive
// (dispatchers, gossip, monitors).
func (ctx *Context) GoDaemon(name string, fn func(*Context)) {
	ctx.goThread(name, fn, true)
}

func (ctx *Context) goThread(name string, fn func(*Context), daemon bool) {
	id, _ := ctx.Do(OpReq{Kind: trace.KThreadCreate, Aux: name}, nil)
	ctx.c.spawnThread(ctx.t.node, name, fn, id, daemon, false)
}

// Emit enqueues an intra-node event; the registered handler runs on the
// node's event-dispatcher thread and causally depends on this enqueue.
func (ctx *Context) Emit(eventType string, payload Value) {
	id, _ := ctx.Do(OpReq{
		Kind:  trace.KEventEnq,
		Aux:   eventType,
		Taint: payload.taint,
	}, nil)
	ctx.t.node.eventQ.push(queuedItem{verb: eventType, payload: payload, causor: id})
}

// runHandlerFrame opens an activation frame (KHandlerBegin) on the current
// thread, runs fn inside it with handler-context tracing enabled, and closes
// the frame. Uncaught app exceptions terminate the handler, not the process.
func (ctx *Context) runHandlerFrame(label string, causor trace.OpID, flags uint32, fn func()) {
	t := ctx.t
	if ctx.c.recoveryLabels[label] {
		flags |= trace.FlagRecoveryRoot
	}
	begin := ctx.c.tracer.emit(t, OpReq{
		Kind: trace.KHandlerBegin, Aux: label, Causor: causor, Flags: flags,
	})
	t.frameStack = append(t.frameStack, t.frame)
	t.frame = begin
	prevHandler := t.handlerCtx
	t.handlerCtx = true
	scopeDepth := len(t.scopes)
	t.pushScope(ctx.c, ctlFrame{label: label})
	prevHist := t.ctlHist
	t.ctlHist = nil

	defer func() {
		if r := recover(); r != nil {
			if p, ok := r.(appPanic); ok {
				ctx.c.out.UncaughtExceptions = append(ctx.c.out.UncaughtExceptions,
					fmt.Sprintf("%s@%s in %s handler %s", p.kind, ctx.c.SiteName(p.site), t.node.PID, label))
			} else {
				panic(r)
			}
		}
		t.popScopesTo(scopeDepth)
		t.handlerCtx = prevHandler
		t.ctlHist = prevHist
		ctx.c.tracer.emit(t, OpReq{Kind: trace.KHandlerEnd, Aux: label})
		t.frame = t.frameStack[len(t.frameStack)-1]
		t.frameStack = t.frameStack[:len(t.frameStack)-1]
	}()
	fn()
}

// --- Logging and exception sinks (Section 4.3.3 impact sources) ---

// Log records an informational message (not an impact sink).
func (ctx *Context) Log(msg string) { _ = msg }

// LogError records an error-level log; values passed taint the sink.
func (ctx *Context) LogError(msg string, vs ...Value) {
	ctx.Do(OpReq{Kind: trace.KLogError, Aux: msg, Taint: taintsOf(vs...)}, nil)
}

// LogFatal records a severe/fatal-level log — a failure-prone local impact.
func (ctx *Context) LogFatal(msg string, vs ...Value) {
	ctx.c.out.FatalLogs = append(ctx.c.out.FatalLogs, fmt.Sprintf("%s@%s", msg, ctx.PID()))
	ctx.Do(OpReq{Kind: trace.KLogFatal, Aux: msg, Taint: taintsOf(vs...)}, nil)
}

// StartService records the startup of a service — a failure-prone local
// impact when influenced by a recovery read.
func (ctx *Context) StartService(name string, vs ...Value) {
	ctx.Do(OpReq{Kind: trace.KServiceStart, Aux: name, Taint: taintsOf(vs...)}, nil)
}

// AppError is a thrown application exception.
type AppError struct {
	Kind string
	Site string
}

func (e *AppError) Error() string { return fmt.Sprintf("%s@%s", e.Kind, e.Site) }

// Throw raises an application exception tainted by vs. If no Try encloses
// it, the thread (or handler) dies and the outcome records it as uncaught.
func (ctx *Context) Throw(kind string, vs ...Value) {
	site := ctx.site()
	ctx.Do(OpReq{Kind: trace.KThrow, Aux: kind, Taint: taintsOf(vs...), Site: site}, nil)
	panic(appPanic{kind: kind, site: site, taint: taintsOf(vs...)})
}

// Try runs fn, catching application exceptions (never simulator kills). A
// caught exception is a *handled* exception: it is traced as a KCatch op and
// does not fail the run — the paper's "well-handled exception" false-positive
// category.
func (ctx *Context) Try(fn func()) (err *AppError) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := r.(appPanic)
			if !ok {
				panic(r) // killedPanic or a real bug: keep unwinding
			}
			ctx.Do(OpReq{Kind: trace.KCatch, Aux: p.kind, Taint: p.taint, Site: p.site}, nil)
			err = &AppError{Kind: p.kind, Site: ctx.c.SiteName(p.site)}
		}
	}()
	fn()
	return nil
}
