package trace

import (
	"sync"
)

// Trace is the full record stream of one observed run, plus run-level
// metadata the detectors need (which processes existed, where the injected
// crash landed, which writes last defined each resource, ...). The trace owns
// the symbol table its records' Sym fields index and the prefix tree their
// StackIDs index; Syms from one trace are meaningless in another (translate
// with SymMapTo or resolve through Str).
//
// Interning (Intern, PushFrame, Append) is single-writer: the tracer runs
// under the scheduler baton. After a run the trace is read-only and every
// resolving accessor (Str, Lookup, StackLabels, ...) is safe for concurrent use
// — the two detectors read one trace from parallel workers.
type Trace struct {
	// Records in emission order; Records[i].ID == OpID(i+1).
	Records []Record

	// PIDs lists every process that appeared in the run, in start order.
	PIDs []string

	// CrashStep is the scheduler step at which the observation crash was
	// injected, or -1 for a fault-free run.
	CrashStep int64
	// CrashedPID is the process crashed by the observation fault ("" if none).
	CrashedPID string

	// Wall-clock durations, filled by the observer (Table 4).
	BaselineNanos int64 // run duration with this trace's tracing mode

	syms   SymTab
	stacks StackTab

	// pidSet is the membership index behind HasPID/AddPID, built lazily (a
	// loaded trace has PIDs but no set) and kept in sync by AddPID. Guarded
	// by a mutex because the two detectors may query one trace concurrently.
	pidMu  sync.Mutex
	pidSet map[string]bool
}

// New returns an empty trace for a fault-free run.
func New() *Trace {
	return &Trace{CrashStep: -1}
}

// Intern returns the trace-local Sym for s, adding it to the symbol table if
// new. Writer-side only (the tracer under the scheduler baton).
func (t *Trace) Intern(s string) Sym { return t.syms.Intern(s) }

// Str resolves a Sym to its string. Safe for concurrent readers.
func (t *Trace) Str(y Sym) string { return t.syms.Str(y) }

// Lookup resolves a string to its Sym without interning; ok is false when the
// string never appeared in this trace. Safe for concurrent readers.
func (t *Trace) Lookup(s string) (Sym, bool) { return t.syms.Lookup(s) }

// NumSyms is the symbol-table size (including the reserved empty slot) —
// the bound for dense per-Sym side tables.
func (t *Trace) NumSyms() int { return t.syms.Len() }

// PushFrame returns the interned stack formed by pushing frame onto parent.
// Writer-side only.
func (t *Trace) PushFrame(parent StackID, frame Sym) StackID {
	return t.stacks.Push(parent, frame)
}

// StackLabels resolves a stack to its frame labels, outermost first.
func (t *Trace) StackLabels(id StackID) []string {
	syms := t.stacks.Frames(id)
	if syms == nil {
		return nil
	}
	out := make([]string, len(syms))
	for i, y := range syms {
		out[i] = t.syms.Str(y)
	}
	return out
}

// NumStacks is the stack-table size (including the reserved empty slot).
func (t *Trace) NumStacks() int { return t.stacks.Len() }

// SymMapTo returns a dense translation table from this trace's Syms to
// other's: m[y] is the Sym in other whose string equals t.Str(y), or NoSym if
// other never interned that string. The crash-recovery detector builds one to
// compare resources and sites across the fault-free/faulty trace pair without
// touching strings in its pair loops.
func (t *Trace) SymMapTo(other *Trace) []Sym {
	m := make([]Sym, t.NumSyms())
	for y := 1; y < len(t.syms.strs); y++ {
		if o, ok := other.Lookup(t.syms.strs[y]); ok {
			m[y] = o
		}
	}
	return m
}

// Append adds a record, assigning its ID, and returns the ID. The record's
// Sym/StackID fields must already be relative to this trace.
func (t *Trace) Append(r Record) OpID {
	r.ID = OpID(len(t.Records) + 1)
	t.Records = append(t.Records, r)
	return r.ID
}

// At returns the record with the given ID, or nil for NoOp / out of range.
func (t *Trace) At(id OpID) *Record {
	if id < 1 || int(id) > len(t.Records) {
		return nil
	}
	return &t.Records[id-1]
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// pidSetThreshold is the PIDs length past which membership switches from a
// linear scan to the lazily-built set. Simulated clusters run a handful of
// processes, so the common case stays allocation-free.
const pidSetThreshold = 16

// ensurePIDSetLocked builds the membership index from PIDs once the list is
// large enough to beat a scan (pidMu must be held). Reports whether the set
// is available.
func (t *Trace) ensurePIDSetLocked() bool {
	if t.pidSet != nil {
		return true
	}
	if len(t.PIDs) < pidSetThreshold {
		return false
	}
	t.pidSet = make(map[string]bool, len(t.PIDs))
	for _, p := range t.PIDs {
		t.pidSet[p] = true
	}
	return true
}

// HasPID reports whether pid appeared in the run. Membership is a set probe
// for large runs — the tracer checks every thread start against it, and the
// crash-recovery detector probes every faulty-run PID against the fault-free
// trace, both linear scans over PIDs before.
func (t *Trace) HasPID(pid string) bool {
	t.pidMu.Lock()
	defer t.pidMu.Unlock()
	if t.ensurePIDSetLocked() {
		return t.pidSet[pid]
	}
	for _, p := range t.PIDs {
		if p == pid {
			return true
		}
	}
	return false
}

// AddPID records pid in start order, once — the tracer calls it on every
// thread start, keeping PIDs and the membership index in sync.
func (t *Trace) AddPID(pid string) {
	t.pidMu.Lock()
	defer t.pidMu.Unlock()
	if t.ensurePIDSetLocked() {
		if t.pidSet[pid] {
			return
		}
		t.pidSet[pid] = true
	} else {
		for _, p := range t.PIDs {
			if p == pid {
				return
			}
		}
	}
	t.PIDs = append(t.PIDs, pid)
}

// numKinds bounds the Kind enum for dense per-kind tables.
const numKinds = int(KRestart) + 1

// Index holds the derived lookups shared by the happens-before analysis and
// both detectors. It is built incrementally: NewIndex starts an empty index,
// Extend folds in each window of records as it arrives (possibly while the
// trace is still being produced), and Finish sizes the per-Sym tables to the
// final symbol table. BuildIndex is the one-shot wrapper. Interning after
// Finish invalidates the index.
type Index struct {
	T *Trace

	// ByKind groups record IDs by kind, in trace order (dense, indexed by
	// Kind).
	ByKind [][]OpID

	// ByRes groups record IDs by resource, in trace order (dense, indexed by
	// the resource's Sym).
	ByRes [][]OpID

	// BySite groups injector-countable record IDs by static site, in trace
	// order (dense, indexed by the site's Sym) — the occurrence numbering the
	// fault injector uses at run time. Crash/restart bookkeeping records are
	// excluded.
	BySite [][]OpID

	// Causees maps a causal op to the activation records it spawned
	// (thread starts, handler begins, KV notifies).
	Causees map[OpID][]OpID

	// FrameOps maps an activation record to the ops that executed directly
	// under it (not through nested activations).
	FrameOps map[OpID][]OpID

	// ThreadStart maps a thread id to its KThreadStart record.
	ThreadStart map[int]OpID
}

// NewIndex starts an empty incremental index over t. The per-Sym tables grow
// lazily as Extend encounters higher Syms — Extend never reads the symbol
// table, so it is safe to run while the single interning writer is still
// appending (the index builder overlapping a live run).
func NewIndex(t *Trace) *Index {
	return &Index{
		T:           t,
		ByKind:      make([][]OpID, numKinds),
		Causees:     make(map[OpID][]OpID),
		FrameOps:    make(map[OpID][]OpID),
		ThreadStart: make(map[int]OpID),
	}
}

// growSymTable extends a dense per-Sym table to at least n slots, doubling to
// amortize repeated growth during incremental extension.
func growSymTable(s [][]OpID, n int) [][]OpID {
	if n <= len(s) {
		return s
	}
	if n < 2*len(s) {
		n = 2 * len(s)
	}
	if n <= cap(s) {
		return s[:n]
	}
	out := make([][]OpID, n)
	copy(out, s)
	return out
}

// Extend folds one window of records (in trace order) into the index.
func (ix *Index) Extend(recs []Record) {
	for i := range recs {
		r := &recs[i]
		ix.ByKind[r.Kind] = append(ix.ByKind[r.Kind], r.ID)
		if r.Res != NoSym {
			if int(r.Res) >= len(ix.ByRes) {
				ix.ByRes = growSymTable(ix.ByRes, int(r.Res)+1)
			}
			ix.ByRes[r.Res] = append(ix.ByRes[r.Res], r.ID)
		}
		// Fault bookkeeping records reuse the trigger's site; they are not
		// operations the injector counts, so they stay out of BySite.
		if r.Site != NoSym && r.Kind != KCrash && r.Kind != KRestart {
			if int(r.Site) >= len(ix.BySite) {
				ix.BySite = growSymTable(ix.BySite, int(r.Site)+1)
			}
			ix.BySite[r.Site] = append(ix.BySite[r.Site], r.ID)
		}
		if r.Kind.IsActivation() || r.Kind == KKVNotify {
			if r.Causor != NoOp {
				ix.Causees[r.Causor] = append(ix.Causees[r.Causor], r.ID)
			}
		}
		if r.Kind == KThreadStart {
			ix.ThreadStart[r.Thread] = r.ID
		}
		if r.Frame != NoOp {
			ix.FrameOps[r.Frame] = append(ix.FrameOps[r.Frame], r.ID)
		}
	}
}

// Finish sizes the per-Sym tables to the (now final) symbol table, so every
// in-range Sym probes without a bounds branch failing. Call it after the
// last Extend, once interning has stopped.
func (ix *Index) Finish() {
	n := ix.T.NumSyms()
	if len(ix.ByRes) < n {
		ix.ByRes = growSymTable(ix.ByRes, n)[:n]
	}
	if len(ix.BySite) < n {
		ix.BySite = growSymTable(ix.BySite, n)[:n]
	}
}

// BuildIndex scans a materialized trace once and produces the Index.
func BuildIndex(t *Trace) *Index {
	ix := NewIndex(t)
	ix.ByRes = make([][]OpID, 0, t.NumSyms())
	ix.BySite = make([][]OpID, 0, t.NumSyms())
	ix.Extend(t.Records)
	ix.Finish()
	return ix
}

// ResIDs returns the ops on the resource with Sym y (nil for NoSym or
// out-of-range Syms).
func (ix *Index) ResIDs(y Sym) []OpID {
	if int(y) >= len(ix.ByRes) {
		return nil
	}
	return ix.ByRes[y]
}

// SiteIDs returns the injector-countable ops at the site with Sym y.
func (ix *Index) SiteIDs(y Sym) []OpID {
	if int(y) >= len(ix.BySite) {
		return nil
	}
	return ix.BySite[y]
}

// Activation returns the activation record op executed under, or nil.
func (ix *Index) Activation(op *Record) *Record {
	return ix.T.At(op.Frame)
}

// Causor returns the direct causor record of op, following the paper's
// definition: the operation whose disappearance makes op disappear. For an
// ordinary op that is the causor of its activation frame; for an activation
// or KV-notify record it is the recorded causor itself.
func (ix *Index) Causor(op *Record) *Record {
	if op.Kind.IsActivation() || op.Kind == KKVNotify {
		return ix.T.At(op.Causor)
	}
	act := ix.Activation(op)
	if act == nil {
		return nil
	}
	return ix.T.At(act.Causor)
}

// WritesTo returns all write-like ops on the resource with Sym y, in trace
// order.
func (ix *Index) WritesTo(y Sym) []OpID {
	var out []OpID
	for _, id := range ix.ResIDs(y) {
		if ix.T.At(id).Kind.IsWriteLike() {
			out = append(out, id)
		}
	}
	return out
}

// ReadsOf returns all read-like ops on the resource with Sym y, in trace
// order.
func (ix *Index) ReadsOf(y Sym) []OpID {
	var out []OpID
	for _, id := range ix.ResIDs(y) {
		if ix.T.At(id).Kind.IsReadLike() {
			out = append(out, id)
		}
	}
	return out
}
