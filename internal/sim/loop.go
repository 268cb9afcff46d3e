package sim

import (
	"fcatch/internal/trace"
)

// inSyncLoop reports whether an open scope is a sync-loop condition body;
// heap reads under one are recorded as loop reads.
func (t *Thread) inSyncLoop() bool {
	for i := len(t.scopes) - 1; i >= 0; i-- {
		if t.scopes[i].loop {
			return true
		}
	}
	return false
}

// LoopOpts configures a synchronization-style polling loop.
type LoopOpts struct {
	// Name labels the loop in traces and reports.
	Name string
	// SleepTicks is how long the loop relinquishes the CPU between
	// iterations. The paper's static heuristic (Section 6) requires a loop
	// to relinquish the CPU to count as likely-synchronization.
	SleepTicks int64
	// Bounded marks loops statically bounded by a constant or container
	// size; these fail the likely-synchronization heuristic and are not
	// instrumented as sync loops.
	Bounded bool
	// MaxIters caps bounded loops (ignored for unbounded ones).
	MaxIters int
}

// SyncLoop runs body until the condition value it returns is truthy, sleeping
// between iterations — the custom while-loop synchronization idiom (e.g.
// HMaster's region-in-transition polling in Figure 6).
//
// For unbounded CPU-relinquishing loops (the paper's likely-synchronization
// heuristic) FCatch traces the loop's condition reads and its exit
// condition's taints; a heap write from another thread whose value feeds the
// exit is a custom signal, and its disappearance hangs this loop.
func (ctx *Context) SyncLoop(opts LoopOpts, body func(*Context) Value) Value {
	likelySync := !opts.Bounded && opts.SleepTicks > 0
	if likelySync {
		ctx.Do(OpReq{Kind: trace.KLoopEnter, Aux: opts.Name}, nil)
	}
	prevLoop := ctx.t.loopName
	ctx.t.loopName = opts.Name
	defer func() { ctx.t.loopName = prevLoop }()
	label := "loop:" + opts.Name
	iters := 0
	for {
		var cond Value
		func() {
			depth := len(ctx.t.scopes)
			ctx.t.pushScope(ctx.c, ctlFrame{label: label, loop: likelySync})
			defer func() { ctx.t.popScopesTo(depth) }()
			cond = body(ctx)
		}()
		iters++
		if cond.Bool() {
			if likelySync {
				ctx.Do(OpReq{Kind: trace.KLoopExit, Aux: opts.Name, Taint: cond.taint}, nil)
			}
			return cond
		}
		if opts.Bounded && opts.MaxIters > 0 && iters >= opts.MaxIters {
			return cond
		}
		if opts.SleepTicks > 0 {
			ctx.Sleep(opts.SleepTicks)
		} else {
			ctx.Yield()
		}
	}
}
