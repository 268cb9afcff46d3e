// Package hb implements the causal and blocking relationship analysis of
// Section 4.1: the causor/causee graph over a trace, Algorithm 1 (everything
// causally depending on a seed set), Algorithm 2 (everything a seed set
// causally depends on), and node attribution ("physically executes on N,
// logically comes from N′").
package hb

import "fcatch/internal/trace"

// Graph wraps a trace index with causality traversals. Chain walks are
// memoized: causor chains share suffixes (each op has at most one causor), so
// one walk caches the chain of every op along the path. A Graph is used by
// one goroutine at a time: the memo tables are filled on first use.
type Graph struct {
	Ix *trace.Index

	// systemSym is the trace's Sym for the synthetic "system" PID (a sentinel
	// that matches nothing when the trace recorded no system ops).
	systemSym trace.Sym

	chains   map[trace.OpID][]trace.OpID // memoized BackwardChain results (lazily allocated)
	crossAnc map[trace.OpID]trace.OpID   // memoized CrossNodeAncestor (NoOp = no remote ancestor)
}

// New builds the causality graph for a complete trace. The memo tables start
// nil — graphs used only for closures (like the faulty-run graph in the
// recovery detector) never pay for them.
func New(t *trace.Trace) *Graph {
	g := &Graph{Ix: trace.BuildIndex(t)}
	if y, ok := t.Lookup("system"); ok {
		g.systemSym = y
	} else {
		g.systemSym = ^trace.Sym(0)
	}
	return g
}

// NewFromSource decodes the rest of src (closing it) and builds the graph
// over the complete trace.
func NewFromSource(src *trace.Source) (*Graph, error) {
	t, err := src.Drain()
	if err != nil {
		return nil, err
	}
	return New(t), nil
}

// ForwardClosureDense is Algorithm 1: the set of operations that causally
// depend on the seed operations, as an OpID-indexed membership slice (OpIDs
// are dense: Records[i].ID == i+1). Seeds may be causal ops (thread creates,
// RPC calls, message sends, event enqueues, KV updates) or activation
// records; the closure contains every op inside activations they
// (transitively) spawned, including the activation records themselves.
// Index 0 (NoOp) is never set; seeds outside the trace are ignored. Every
// queued in-range op resolves to a record and lands in the closure
// (activations via the frame branch, everything else via the final branch;
// the paper's Algorithm 1 includes the seeds too), so one slice is both the
// visited set and the result.
func (g *Graph) ForwardClosureDense(seeds []trace.OpID) []bool {
	in := make([]bool, len(g.Ix.T.Records)+1)
	wcap := len(seeds)
	if wcap < 64 {
		wcap = 64 // closures are usually tens to hundreds of ops; skip the first growth steps
	}
	work := make([]trace.OpID, 0, wcap)
	push := func(id trace.OpID) {
		if id >= 1 && int(id) < len(in) && !in[id] {
			in[id] = true
			work = append(work, id)
		}
	}
	for _, s := range seeds {
		push(s)
	}
	for len(work) > 0 {
		h := work[len(work)-1]
		work = work[:len(work)-1]
		r := g.Ix.T.At(h)
		if r == nil {
			continue
		}
		// Ops inside an activation frame causally depend on the frame.
		if r.Kind.IsActivation() || r.Kind == trace.KKVNotify {
			for _, op := range g.Ix.FrameOpsOf(h) {
				push(op)
			}
		}
		// Causees of causal ops (and of KV-notify records, which cause the
		// watcher's handler activation).
		if r.Kind.IsCausal() || r.Kind == trace.KKVNotify {
			for _, act := range g.Ix.CauseesOf(h) {
				push(act)
			}
		}
	}
	return in
}

// BackwardChain is Algorithm 2: the operations a given op causally depends
// on, nearest first. (Each op has at most one causor, so the closure is a
// chain.) Results are memoized; callers must not mutate the returned slice.
func (g *Graph) BackwardChain(op trace.OpID) []trace.OpID {
	if c, ok := g.chains[op]; ok {
		return c
	}
	if g.chains == nil {
		g.chains = make(map[trace.OpID][]trace.OpID)
	}
	// Collect the uncached segment of the causor path. Causors strictly
	// precede their effects in trace order (IDs decrease along the walk), so
	// requiring a strictly smaller ID both terminates the loop and guards
	// against a malformed trace — no visited set needed.
	path := []trace.OpID{op}
	var tailHead trace.OpID // first cached node below the segment (NoOp: none)
	var tail []trace.OpID   // that node's cached chain
	cur := g.Ix.T.At(op)
	for cur != nil {
		c := g.Ix.Causor(cur)
		if c == nil || c.ID >= cur.ID {
			break
		}
		if cached, ok := g.chains[c.ID]; ok {
			tailHead, tail = c.ID, cached
			break
		}
		path = append(path, c.ID)
		cur = c
	}
	// Cache every node on the segment as a sub-slice of one backing array:
	// chain(path[i]) = path[i+1:] + tailHead + tail = full[i:].
	n := len(path) - 1 + len(tail)
	if tailHead != trace.NoOp {
		n++
	}
	full := make([]trace.OpID, 0, n)
	full = append(full, path[1:]...)
	if tailHead != trace.NoOp {
		full = append(full, tailHead)
	}
	full = append(full, tail...)
	for i, id := range path {
		g.chains[id] = full[i:]
	}
	return full
}

// CrossNodeAncestor walks op's causor chain and returns the nearest ancestor
// that physically executes on a different process — the W′ of a
// crash-regular report: the remote operation whose disappearance (node
// crash, message drop) makes op disappear. Returns nil if the chain stays on
// one process.
func (g *Graph) CrossNodeAncestor(op trace.OpID) *trace.Record {
	r := g.Ix.T.At(op)
	if r == nil {
		return nil
	}
	if id, ok := g.crossAnc[op]; ok {
		return g.Ix.T.At(id) // At(NoOp) is nil: cached "no remote ancestor"
	}
	var found *trace.Record
	for _, anc := range g.BackwardChain(op) {
		ar := g.Ix.T.At(anc)
		if ar == nil {
			continue
		}
		// Notify records are coordination-service internals; the app-level
		// operation a fault can remove is the update behind them.
		if ar.Kind == trace.KKVNotify {
			continue
		}
		if ar.PID != r.PID && ar.PID != g.systemSym {
			found = ar
			break
		}
	}
	id := trace.NoOp
	if found != nil {
		id = found.ID
	}
	if g.crossAnc == nil {
		g.crossAnc = make(map[trace.OpID]trace.OpID)
	}
	g.crossAnc[op] = id
	return found
}

// EscapingSeeds returns the causal operations physically on pid whose
// effects land elsewhere: RPC calls and message sends targeting other
// processes, and KV updates (shared persistent state). These seed the
// crash-op identification of Section 4.3.1.
func (g *Graph) EscapingSeeds(pid string) []trace.OpID {
	y, ok := g.Ix.T.Lookup(pid)
	if !ok {
		return nil
	}
	var out []trace.OpID
	for _, k := range []trace.Kind{trace.KRPCCall, trace.KMsgSend, trace.KEventEnq, trace.KKVUpdate} {
		for _, id := range g.Ix.ByKind[k] {
			r := g.Ix.T.At(id)
			if r.PID != y {
				continue
			}
			switch k {
			case trace.KRPCCall, trace.KMsgSend:
				if r.Target != trace.NoSym && r.Target != y {
					out = append(out, id)
				}
			case trace.KKVUpdate:
				out = append(out, id)
			case trace.KEventEnq:
				// Intra-node events stay on the crashing node; only
				// cross-process posts escape.
				if r.Target != trace.NoSym && r.Target != y {
					out = append(out, id)
				}
			}
		}
	}
	return out
}
