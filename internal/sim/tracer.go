package sim

import (
	"fcatch/internal/trace"
)

// opSpec is the pre-interning description of one record: the op layer fills
// it with the sim's dense site id plus plain strings, and the tracer interns
// them into the run's trace, so application code and substrates never touch
// symbol tables. ResSym, when non-nil, points at the emitting object's cached
// trace symbol for Res: the first traced emit interns Res and writes the Sym
// back through the pointer, and every later emit skips the string table.
type opSpec struct {
	Kind   trace.Kind
	Site   SiteID
	Res    string
	ResSym *trace.Sym
	Aux    string
	Target string
	Src    trace.OpID
	Causor trace.OpID
	Flags  uint32
	Taint  []trace.OpID
	Ctl    []trace.OpID
}

// tracer writes records through a trace.Writer sink, implementing the
// paper's selective tracing policy (Section 3.2): happens-before operations,
// storage operations and synchronization-loop reads are always recorded;
// plain heap accesses only when they execute inside an RPC/message/event
// handler (or its callees) — or everywhere in the exhaustive ablation mode.
// The sink keeps the records in the trace, or passes them through
// Config.Fold and keeps none.
type tracer struct {
	c     *Cluster
	trace *trace.Trace
	sink  *trace.Writer
	// sysPID is the interned "system" PID for scheduler-context records.
	sysPID trace.Sym
}

func newTracer(c *Cluster) *tracer {
	tr := &tracer{c: c}
	if c.cfg.Tracing != TraceOff {
		tr.trace = trace.New()
		tr.sink = trace.NewWriter(tr.trace, c.cfg.Fold)
		tr.sysPID = tr.trace.Intern("system")
	}
	return tr
}

// finish folds the final partial window of a folded run (called once, at the
// end of Run).
func (tr *tracer) finish() {
	if tr.sink != nil {
		tr.sink.Flush()
	}
}

// sym interns s into the run's trace (NoSym when s is empty).
func (tr *tracer) sym(s string) trace.Sym {
	if s == "" || tr.trace == nil {
		return trace.NoSym
	}
	return tr.trace.Intern(s)
}

// siteSym maps a sim SiteID to its trace Sym, interning the site string into
// the trace on first use. Interning lazily, at a site's first emission, is
// what fixes symbol numbering (and hence encoded trace bytes): a site is
// numbered when a record first names it; steady state is one slice load.
func (tr *tracer) siteSym(id SiteID) trace.Sym {
	if id == NoSite {
		return trace.NoSym
	}
	c := tr.c
	s := c.siteSyms[id]
	if s == trace.NoSym {
		s = tr.trace.Intern(c.siteStrs[id])
		c.siteSyms[id] = s
	}
	return s
}

// internRes resolves the Res symbol, going through the caller's cache slot
// when one is provided (heap fields and conds emit against the same resource
// every time, so after the first emit the slot short-circuits the intern).
func (tr *tracer) internRes(res string, cache *trace.Sym) trace.Sym {
	if cache != nil {
		s := *cache
		if s == trace.NoSym && res != "" {
			s = tr.trace.Intern(res)
			*cache = s
		}
		return s
	}
	return tr.trace.Intern(res)
}

// shouldTrace applies the selectivity policy to one op kind.
func (tr *tracer) shouldTrace(t *Thread, k trace.Kind) bool {
	if tr.trace == nil {
		return false
	}
	switch k {
	case trace.KHeapRead, trace.KHeapWrite:
		if tr.c.cfg.Tracing == TraceExhaustive {
			return true
		}
		return t.handlerCtx
	case trace.KLoopRead:
		return true // identified sync-loop reads are traced everywhere
	}
	return true
}

// emit records an operation performed by thread t. It interns the op's
// strings, fills in the ambient fields (timestamp, pid, thread, frame, the
// thread's incrementally-maintained callstack, handler flag) and returns the
// new op's ID — or trace.NoOp when the record is not traced.
func (tr *tracer) emit(t *Thread, op opSpec) trace.OpID {
	if !tr.shouldTrace(t, op.Kind) {
		return trace.NoOp
	}
	w := tr.trace
	// Interning order Site, Res, Aux, Target fixes symbol numbering, hence
	// encoded bytes.
	r := trace.Record{
		TS:      tr.c.clock,
		Machine: t.node.machineSym,
		PID:     t.node.pidSym,
		Thread:  t.id,
		Frame:   t.frame,
		Kind:    op.Kind,
		Site:    tr.siteSym(op.Site),
		Stack:   t.stack,
		Res:     tr.internRes(op.Res, op.ResSym),
		Src:     op.Src,
		Aux:     w.Intern(op.Aux),
		Target:  w.Intern(op.Target),
		Flags:   op.Flags,
		Causor:  op.Causor,
		Taint:   op.Taint,
		Ctl:     op.Ctl,
	}
	if t.handlerCtx {
		r.Flags |= trace.FlagHandlerCtx
	}
	if len(r.Ctl) == 0 {
		r.Ctl = t.ctlTaints()
	}
	tr.c.clock += tr.c.cfg.TraceTickCost
	id := tr.sink.Append(r)
	if op.Kind == trace.KThreadStart {
		w.AddPID(t.node.PID)
	}
	return id
}

// emitSystem records scheduler-context bookkeeping (crash/restart marks).
func (tr *tracer) emitSystem(op opSpec) trace.OpID {
	if tr.trace == nil {
		return trace.NoOp
	}
	w := tr.trace
	return tr.sink.Append(trace.Record{
		TS:     tr.c.clock,
		PID:    tr.sysPID,
		Kind:   op.Kind,
		Site:   tr.siteSym(op.Site),
		Res:    tr.internRes(op.Res, op.ResSym),
		Aux:    w.Intern(op.Aux),
		Target: w.Intern(op.Target),
		Flags:  op.Flags,
		Causor: op.Causor,
		Taint:  op.Taint,
		Ctl:    op.Ctl,
	})
}

// needSites reports whether op sites must be computed this run (they are
// needed for traces, for matching site-anchored fault events and for the
// stall rule).
func (c *Cluster) needSites() bool {
	return c.tracer.trace != nil || (c.pendingPlan != nil && c.pendingPlan.siteEvents > 0) || c.cfg.StallPicks > 0
}
