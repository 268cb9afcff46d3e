package sim

import (
	"fcatch/internal/trace"
)

// resNamer builds a resource name on demand (see OpReq.resOf).
type resNamer interface{ resName() string }

// Fact is one op the tracing policy selects, or one crash or restart mark,
// as a folded run passes it to its Fold: the record a kept run would write,
// less the names only a kept trace needs. ID, Taint and Ctl are filled only
// when the fold names a source site (Fold.DepSite); otherwise the run numbers
// no ops and merges no taint, as an untraced run does. Every fact is numbered
// as a kept run numbers its record, but only the ops at the source site hand
// their ID back to the op layer, so Taint and Ctl hold executions of that
// site alone.
type Fact struct {
	Kind     trace.Kind
	Site     SiteID
	SiteName string // the site's string (Cluster.SiteName(Site))
	TS       int64
	Flags    uint32
	Aux      string // the op's Aux: a throw's exception kind, a crash's PID

	ID    trace.OpID
	Taint []trace.OpID
	Ctl   []trace.OpID
}

// Fold consumes a run that keeps no trace (Config.Fold): Fact is passed each
// selected op in emission order, while the emitting thread runs. The Fact is
// the caller's scratch, rewritten for the next op: a fold must not keep the
// pointer, only what it copies out of it. DepSite,
// asked once when the cluster is built, names the one source site whose
// executions Fact reads dependences on ("" for none): a fact's Taint and Ctl
// then hold exactly the executions of that site its op depends on.
type Fold interface {
	Fact(*Fact)
	DepSite() string
}

// FoldTrace passes a kept trace's records to fold as the facts a folded run
// of the same schedule passes it. A record's site symbol stands in for the
// SiteID, so Sites resolve through tr.Str. Each record's Taint and Ctl are cut
// down to the records at the fold's source site, which is what the folded
// run's op layer propagates.
func FoldTrace(fold Fold, tr *trace.Trace) {
	site := fold.DepSite()
	atSite := func(ids []trace.OpID) []trace.OpID {
		var out []trace.OpID
		for _, id := range ids {
			if r := tr.At(id); r != nil && tr.Str(r.Site) == site {
				out = append(out, id)
			}
		}
		return out
	}
	var f Fact
	for i := range tr.Records {
		r := &tr.Records[i]
		f = Fact{Kind: r.Kind, Site: SiteID(r.Site), SiteName: tr.Str(r.Site), TS: r.TS, Flags: r.Flags, Aux: tr.Str(r.Aux)}
		if site != "" {
			f.ID, f.Taint, f.Ctl = r.ID, atSite(r.Taint), atSite(r.Ctl)
		}
		fold.Fact(&f)
	}
}

// tracer implements the paper's selective tracing policy (Section 3.2):
// happens-before operations, storage operations and synchronization-loop
// reads are always recorded; plain heap accesses only when they execute
// inside an RPC/message/event handler (or its callees) — or everywhere in the
// exhaustive ablation mode. A selected op becomes a record of the kept trace,
// or, when Config.Fold is set, a Fact passed to the fold and no record.
type tracer struct {
	c     *Cluster
	trace *trace.Trace // a kept run's trace
	fold  Fold         // a folded run's consumer
	// deps is set when the run numbers its ops and tracks their
	// dependences: a kept run, or a fold that names a source site. depSite
	// is that site: a folded run hands an op's ID back to the op layer only
	// there. ops numbers a folded run's ops.
	deps    bool
	depSite SiteID
	ops     trace.OpID
	// sysPID is the interned "system" PID for scheduler-context records.
	sysPID trace.Sym
	// scratch is the Fact a folded run passes its fold, rewritten per op.
	scratch Fact
}

func newTracer(c *Cluster) *tracer {
	tr := &tracer{c: c}
	switch {
	case c.cfg.Tracing == TraceOff:
	case c.cfg.Fold != nil:
		tr.fold = c.cfg.Fold
		site := tr.fold.DepSite()
		c.lookupSite(site, &tr.depSite)
		tr.deps = site != ""
	default:
		tr.trace, tr.deps = trace.New(), true
		tr.sysPID = tr.trace.Intern("system")
	}
	return tr
}

// sym interns s into the run's trace (NoSym when s is empty or no trace is
// kept).
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

// internRes resolves the Res symbol, going through the op's cache slot when
// it has one (heap fields, conds and storage resources emit against the same
// resource every time, so after the first emit the slot short-circuits the
// intern, and a lazily named resource is named then).
func (tr *tracer) internRes(op *OpReq) trace.Sym {
	if op.ResSym == nil {
		return tr.trace.Intern(op.Res)
	}
	s := *op.ResSym
	if s == trace.NoSym {
		res := op.Res
		if op.resOf != nil {
			res = op.resOf.resName()
		}
		if res != "" {
			s = tr.trace.Intern(res)
			*op.ResSym = s
		}
	}
	return s
}

// shouldTrace applies the selectivity policy to one op kind.
func (tr *tracer) shouldTrace(t *Thread, k trace.Kind) bool {
	if tr.c.cfg.Tracing == TraceOff {
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

// emit records an operation performed by thread t at op.Site, filling in the
// ambient fields (timestamp, handler flag, the thread's control taints; for a
// kept record also pid, thread, frame and the thread's
// incrementally-maintained callstack), and returns the new op's ID — or
// trace.NoOp when the op is not traced, the run tracks no dependences, or a
// folded run's op is not at its fold's source site.
func (tr *tracer) emit(t *Thread, op OpReq) trace.OpID {
	if !tr.shouldTrace(t, op.Kind) {
		return trace.NoOp
	}
	if t.handlerCtx {
		op.Flags |= trace.FlagHandlerCtx
	}
	var ctl []trace.OpID
	if tr.deps {
		ctl = t.ctlTaints()
	}
	if max(len(op.Taint), len(ctl)) >= MaxTaint {
		tr.c.out.FullTaints++
	}
	ts := tr.c.clock
	tr.c.clock += tr.c.cfg.TraceTickCost
	if tr.fold != nil {
		return tr.fact(&op, ctl, ts)
	}
	w := tr.trace
	// Interning order Site, Res, Aux, Target fixes symbol numbering, hence
	// encoded bytes.
	return w.Append(trace.Record{
		TS:      ts,
		Machine: t.node.machineSym,
		PID:     t.node.pidSym,
		Thread:  t.id,
		Frame:   t.frame,
		Kind:    op.Kind,
		Site:    tr.siteSym(op.Site),
		Stack:   t.stack,
		Res:     tr.internRes(&op),
		Src:     op.Src,
		Aux:     w.Intern(op.Aux),
		Target:  w.Intern(op.Target),
		Flags:   op.Flags,
		Causor:  op.Causor,
		Taint:   op.Taint,
		Ctl:     ctl,
	})
}

// emitSystem records scheduler-context bookkeeping (crash/restart marks),
// which carries no control taints.
func (tr *tracer) emitSystem(op OpReq) trace.OpID {
	switch {
	case tr.fold != nil:
		return tr.fact(&op, nil, tr.c.clock)
	case tr.trace == nil:
		return trace.NoOp
	}
	w := tr.trace
	return w.Append(trace.Record{
		TS:     tr.c.clock,
		PID:    tr.sysPID,
		Kind:   op.Kind,
		Site:   tr.siteSym(op.Site),
		Res:    tr.internRes(&op),
		Aux:    w.Intern(op.Aux),
		Target: w.Intern(op.Target),
		Flags:  op.Flags,
		Causor: op.Causor,
		Taint:  op.Taint,
	})
}

// fact passes one selected op, stamped ts and with control taints ctl, to the
// run's fold, numbering it when the fold reads dependences. Only an op at the fold's source site
// returns its ID; every other op returns NoOp, so no value, control set or
// storage define-use link carries it. (Without a source site, depSite is
// NoSite and a siteless op's ID is NoOp too.)
func (tr *tracer) fact(op *OpReq, ctl []trace.OpID, ts int64) trace.OpID {
	f := &tr.scratch
	*f = Fact{Kind: op.Kind, Site: op.Site, SiteName: tr.c.siteStrs[op.Site], TS: ts, Flags: op.Flags, Aux: op.Aux}
	if tr.deps {
		tr.ops++
		f.ID, f.Taint, f.Ctl = tr.ops, op.Taint, ctl
	}
	tr.fold.Fact(f)
	if op.Site != tr.depSite {
		return trace.NoOp
	}
	return f.ID
}

// needSites reports whether op sites must be computed this run (they are
// needed for traces and folds, for matching site-anchored fault events and
// for the stall rule).
func (c *Cluster) needSites() bool {
	return c.cfg.Tracing != TraceOff || (c.pendingPlan != nil && c.pendingPlan.siteEvents > 0) || c.cfg.StallPicks > 0
}
