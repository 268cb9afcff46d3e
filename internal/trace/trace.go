package trace

import (
	"slices"
	"strings"
)

// Trace is the full record stream of one observed run, plus run-level
// metadata the detectors need (which processes existed, where the injected
// crash landed, which writes last defined each resource, ...). The trace owns
// the symbol table its records' Sym fields index and the prefix tree their
// StackIDs index; Syms from one trace are meaningless in another (translate
// with SymMapTo or resolve through Str).
//
// Interning (Intern, PushFrame, Append, AddPID) is single-writer: the tracer
// runs while one simulated thread runs. After a run the trace is read-only:
// its accessors (Str, Lookup, StackLabels, HasPID, ...) only read, so
// goroutines that share a finished trace need no locking.
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

	syms   SymTab
	stacks StackTab
}

// New returns an empty trace for a fault-free run.
func New() *Trace {
	return &Trace{CrashStep: -1}
}

// FaultFiring records one scenario event actually firing during a run:
// which event, what it did, to whom, and when. The simulator records the
// firings of a faulty run and hazard-window derivation consumes them —
// unlike the flat victim list, each keeps its fault's moment and anchor.
type FaultFiring struct {
	// Index is the event's position in the scenario (sim.FaultPlan.Events).
	Index int `json:"index"`
	// Action is the event's fault action, in sim.ActionNames() form.
	Action string `json:"action"`
	// Step is the logical clock at the moment the event fired.
	Step int64 `json:"step"`
	// Site is the matched site for site-anchored events ("" otherwise);
	// Occurrence and When complete the anchor (1-based occurrence at Site,
	// before/after edge), so a firing can be replayed as a site-anchored
	// event without the original spec.
	Site       string `json:"site,omitempty"`
	Occurrence int    `json:"occurrence,omitempty"`
	When       string `json:"when,omitempty"`
	// Victim is the crashed process for crash actions, or the sender whose
	// message was dropped for drop actions. Empty when the event fired but
	// hit nothing (unresolvable target, non-send op under a drop event).
	Victim string `json:"victim,omitempty"`
}

// Intern returns the trace-local Sym for s, adding it to the symbol table if
// new. Writer-side only (the tracer, while one simulated thread runs).
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

// HasPID reports whether pid appeared in the run. Simulated clusters run a
// handful of processes, so a scan of PIDs is the whole index.
func (t *Trace) HasPID(pid string) bool { return slices.Contains(t.PIDs, pid) }

// AddPID records pid in start order, once — the tracer calls it on every
// thread start.
func (t *Trace) AddPID(pid string) {
	if !t.HasPID(pid) {
		t.PIDs = append(t.PIDs, pid)
	}
}

// Role strips the incarnation suffix from a PID ("hmaster#2" → "hmaster").
func Role(pid string) string {
	if i := strings.IndexByte(pid, '#'); i >= 0 {
		return pid[:i]
	}
	return pid
}

// numKinds bounds the Kind enum for dense per-kind tables.
const numKinds = int(KRestart) + 1

// Index holds the derived lookups shared by the happens-before analysis and
// both detectors. BuildIndex makes it in one go from a complete trace; the
// trace must not grow (records or symbols) afterwards.
//
// Every group of record IDs — per kind, per resource, per site, per causor,
// per activation frame — is a sub-slice of one shared array, clipped to its
// own length. Treat them as read-only; an append reallocates.
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

	// ThreadStart maps a thread id to its KThreadStart record.
	ThreadStart map[int]OpID

	// The two op-keyed groups (CauseesOf, FrameOpsOf) as offset tables over
	// the dense OpID: the group of op id is ids[off[id]:off[id+1]]. Offsets
	// are int32 — a slice header per op would triple the index — which bounds
	// a trace at 2^31 group entries, some 290 GB of records.
	ids       []OpID
	causeeOff []int32
	frameOff  []int32
}

// indexesCausor reports whether r is listed under its Causor (activations
// and KV notifies carry one).
func indexesCausor(r *Record) bool {
	return (r.Kind.IsActivation() || r.Kind == KKVNotify) && r.Causor != NoOp
}

// indexesSite reports whether r counts toward its site's occurrences. Fault
// bookkeeping records reuse the trigger's site; they are not operations the
// injector counts.
func indexesSite(r *Record) bool {
	return r.Site != NoSym && r.Kind != KCrash && r.Kind != KRestart
}

// BuildIndex indexes a complete trace in two passes over its records: the
// first counts every group, then one array is allocated for all of them and
// the second pass fills each group's share of it. Kinds, Syms and op
// references are used as table indices unchecked: the tracer assigns them
// densely and the decoder rejects a record whose fields fall outside the
// tables (decodeChunk), so a violation here is a bug in the producer.
func BuildIndex(t *Trace) *Index {
	recs := t.Records
	nSyms := t.NumSyms()
	ix := &Index{T: t}

	// Count. The per-Sym counts are scratch; the per-op counts are taken in
	// the offset tables themselves, one slot up (see the fill below).
	var kindN [numKinds]int32
	symN := make([]int32, 2*nSyms)
	resN, siteN := symN[:nSyms], symN[nSyms:]
	off := make([]int32, 2*(len(recs)+2))
	ix.causeeOff, ix.frameOff = off[:len(recs)+2], off[len(recs)+2:]
	total := len(recs) // every record is in its kind's group
	for i := range recs {
		r := &recs[i]
		kindN[r.Kind]++
		if r.Res != NoSym {
			resN[r.Res]++
			total++
		}
		if indexesSite(r) {
			siteN[r.Site]++
			total++
		}
		if indexesCausor(r) {
			ix.causeeOff[r.Causor+1]++
			total++
		}
		if r.Frame != NoOp {
			ix.frameOff[r.Frame+1]++
			total++
		}
	}

	ix.ThreadStart = make(map[int]OpID, kindN[KThreadStart])

	// Carve. Header groups get an empty slice with exactly their capacity
	// (nil when empty); the offset tables turn counts into start positions.
	ix.ids = make([]OpID, total)
	free := ix.ids
	carve := func(n int32) []OpID {
		if n == 0 {
			return nil
		}
		g := free[:0:n]
		free = free[n:]
		return g
	}
	hdr := make([][]OpID, numKinds+2*nSyms)
	ix.ByKind, hdr = hdr[:numKinds:numKinds], hdr[numKinds:]
	ix.ByRes, ix.BySite = hdr[:nSyms:nSyms], hdr[nSyms:]
	for k, n := range kindN {
		ix.ByKind[k] = carve(n)
	}
	for y := range resN {
		ix.ByRes[y] = carve(resN[y])
		ix.BySite[y] = carve(siteN[y])
	}
	next := int32(len(ix.ids) - len(free))
	for _, tab := range [][]int32{ix.causeeOff, ix.frameOff} {
		// tab[id+1] holds op id's count; make it op id's start.
		for k := 1; k < len(tab); k++ {
			n := tab[k]
			tab[k] = next
			next += n
		}
		tab[0] = tab[1]
	}

	// Fill. Writing op id's next entry at tab[id+1] and bumping it leaves
	// tab[id+1] at the end of id's group — the start of id+1's — so when the
	// pass is done tab[id] is where id's group starts, for every id.
	for i := range recs {
		r := &recs[i]
		ix.ByKind[r.Kind] = append(ix.ByKind[r.Kind], r.ID)
		if r.Res != NoSym {
			ix.ByRes[r.Res] = append(ix.ByRes[r.Res], r.ID)
		}
		if indexesSite(r) {
			ix.BySite[r.Site] = append(ix.BySite[r.Site], r.ID)
		}
		if indexesCausor(r) {
			ix.ids[ix.causeeOff[r.Causor+1]] = r.ID
			ix.causeeOff[r.Causor+1]++
		}
		if r.Kind == KThreadStart {
			ix.ThreadStart[r.Thread] = r.ID
		}
		if r.Frame != NoOp {
			ix.ids[ix.frameOff[r.Frame+1]] = r.ID
			ix.frameOff[r.Frame+1]++
		}
	}
	return ix
}

// opGroup returns op id's group from an offset table (nil for NoOp and ids
// outside the trace).
func (ix *Index) opGroup(off []int32, id OpID) []OpID {
	if id < 1 || int(id) > len(ix.T.Records) {
		return nil
	}
	lo, hi := off[id], off[id+1]
	if lo == hi {
		return nil
	}
	return ix.ids[lo:hi:hi]
}

// CauseesOf returns the activation records a causal op spawned (thread
// starts, handler begins, KV notifies), in trace order.
func (ix *Index) CauseesOf(id OpID) []OpID { return ix.opGroup(ix.causeeOff, id) }

// FrameOpsOf returns the ops that executed directly under an activation
// record (not through nested activations), in trace order.
func (ix *Index) FrameOpsOf(id OpID) []OpID { return ix.opGroup(ix.frameOff, id) }

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
