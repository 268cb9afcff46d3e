// Package sim implements a deterministic, cooperatively scheduled
// distributed-system simulator. It is the substrate the mini cloud systems
// (internal/apps/...) run on and the instrumentation point FCatch traces.
//
// Determinism is the load-bearing property: given the same workload, seed and
// fault plan, a cluster produces bit-identical traces. FCatch's VM-checkpoint
// trick (Section 3.1 of the paper) is realized as deterministic replay — a
// "checkpoint at step k" is a re-run from step 0 that injects (or does not
// inject) a crash at step k, which yields the same identical-prefix pair of
// runs the paper obtains from VirtualBox snapshots, including stable heap
// object IDs across the pair.
package sim

import (
	"fmt"

	"fcatch/internal/trace"
)

// Value is a datum flowing through a simulated system, together with the set
// of trace operations whose results influenced it (dynamic data dependence).
// The taints substitute for the paper's WALA data-flow analysis: wherever the
// paper asks "does X depend on read R?", the detectors test R ∈ X.Taint.
type Value struct {
	Data  any
	taint []trace.OpID
}

// V wraps a plain datum with no taint.
func V(data any) Value { return Value{Data: data} }

// Bool interprets the value as a condition: nil, false, 0, and "" are false.
func (v Value) Bool() bool {
	switch d := v.Data.(type) {
	case nil:
		return false
	case bool:
		return d
	case int:
		return d != 0
	case int64:
		return d != 0
	case string:
		return d != ""
	default:
		return true
	}
}

// Int returns the value as an int (0 if it is not one).
func (v Value) Int() int {
	switch d := v.Data.(type) {
	case int:
		return d
	case int64:
		return int(d)
	}
	return 0
}

// Str returns the value as a string (fmt-rendered if not one).
func (v Value) Str() string {
	if s, ok := v.Data.(string); ok {
		return s
	}
	if v.Data == nil {
		return ""
	}
	return fmt.Sprint(v.Data)
}

// IsNil reports whether the value holds nothing.
func (v Value) IsNil() bool { return v.Data == nil }

// Taint returns the op IDs that influenced this value.
func (v Value) Taint() []trace.OpID { return v.taint }

// WithTaint returns a copy of v additionally tainted by op id. Taking one op
// at a time keeps every taint set sorted by construction.
func (v Value) WithTaint(id trace.OpID) Value {
	// New ops have the highest IDs, so scan from the tail.
	i := len(v.taint)
	for i > 0 && v.taint[i-1] > id {
		i--
	}
	if i > 0 && v.taint[i-1] == id {
		return v
	}
	out := make([]trace.OpID, 0, len(v.taint)+1)
	out = append(out, v.taint[:i]...)
	out = append(out, id)
	out = append(out, v.taint[i:]...)
	v.taint = capTaints(out)
	return v
}

// Derive produces a new value computed from v and the given inputs; the
// result carries the union of all taints. Use it for app-level computation
// that combines tainted data (string concat, arithmetic, ...).
func Derive(data any, inputs ...Value) Value {
	out := Value{Data: data}
	for _, in := range inputs {
		out.taint = mergeTaints(out.taint, in.taint)
	}
	return out
}

// MaxTaint bounds taint sets, which keep their newest ops; real dependence
// chains in the mini systems are short, so the cap only guards against
// pathological accumulation. Outcome.FullTaints counts the ops whose sets
// reached it.
const MaxTaint = 64

// mergeTaints returns the sorted, deduplicated union, capped at MaxTaint.
//
// Taint slices are immutable by convention (every mutation goes through a
// merge that returns a fresh or aliased slice, never an in-place edit), and
// every one is a sorted set by construction: WithTaint adds one op at a time
// and the merges keep order. That makes the union a linear two-pointer merge,
// and lets the subset cases return one of the inputs unchanged — the dominant
// case in practice (repeated guards and derives over the same dependencies),
// which then costs zero allocations.
func mergeTaints(a []trace.OpID, b []trace.OpID) []trace.OpID {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	if subsetOf(b, a) {
		return a
	}
	if subsetOf(a, b) {
		return capTaints(b)
	}
	out := make([]trace.OpID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return capTaints(out)
}

// growTaints is mergeTaints for a set that one field owns exclusively — a
// scope's ctl, a thread's ctlHist — and that mostly grows by fresh reads,
// whose op ids sort after everything already in it. Such an extension is
// appended in place and the ≤MaxTaint view slid forward, so a polling loop's
// guards cost an amortized few bytes each, not two full copies of the set.
// The result is element for element what mergeTaints(set, in) returns.
//
// Ownership is carried by capacity alone. Only the extension below creates an
// array with cap > len; everything adopted from outside (in itself, a merge
// result) is clipped to cap == len first, so a set with spare capacity is one
// this function built for the field that holds it. Slices handed out earlier
// (Record.Ctl through ctlCache, RPC reply taints, a saved ctlHist) alias the
// array only up to their own len and the extension writes only past the
// owner's, so they keep their contents; they stay immutable by convention.
func growTaints(set, in []trace.OpID) []trace.OpID {
	if len(in) == 0 {
		return set
	}
	if n := len(set); n > 0 && in[0] > set[n-1] {
		if total := n + len(in); total > cap(set) {
			// Geometric from a handful of ids (most scopes guard once or
			// twice); a full set gets MaxTaint slots of room to slide.
			set = append(make([]trace.OpID, 0, total+min(total, MaxTaint)), set...)
		}
		return capTaints(append(set, in...))
	}
	if subsetOf(in, set) {
		return set // what mergeTaints returns, with the spare capacity kept
	}
	out := mergeTaints(set, in)
	return out[:len(out):len(out)]
}

// subsetOf reports whether sorted set sub ⊆ sorted set sup.
func subsetOf(sub, sup []trace.OpID) bool {
	if len(sub) > len(sup) {
		return false
	}
	j := 0
	for _, id := range sub {
		for j < len(sup) && sup[j] < id {
			j++
		}
		if j == len(sup) || sup[j] != id {
			return false
		}
		j++
	}
	return true
}

// capTaints applies the MaxTaint bound, keeping the highest (newest) ops.
func capTaints(s []trace.OpID) []trace.OpID {
	if len(s) > MaxTaint {
		return s[len(s)-MaxTaint:]
	}
	return s
}

// taintsOf unions the taints of several values.
func taintsOf(vs ...Value) []trace.OpID {
	var out []trace.OpID
	for _, v := range vs {
		out = mergeTaints(out, v.taint)
	}
	return out
}
