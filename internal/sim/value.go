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
	"sort"

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

// WithTaint returns a copy of v additionally tainted by the given ops.
func (v Value) WithTaint(ops ...trace.OpID) Value {
	v.taint = mergeTaints(v.taint, ops)
	return v
}

// withTaint1 is WithTaint for exactly one op, avoiding the variadic slice.
func (v Value) withTaint1(id trace.OpID) Value {
	v.taint = mergeTaint1(v.taint, id)
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

// maxTaint bounds taint sets; real dependence chains in the mini systems are
// short, so the cap only guards against pathological accumulation.
const maxTaint = 64

// mergeTaints returns the sorted, deduplicated union, capped at maxTaint.
//
// Taint slices are immutable by convention (every mutation goes through a
// merge that returns a fresh or aliased slice, never an in-place edit), and
// every slice this package produces is already a sorted set. That makes the
// union a linear two-pointer merge, and lets the subset cases return one of
// the inputs unchanged — the dominant case in practice (repeated guards and
// derives over the same dependencies), which then costs zero allocations.
func mergeTaints(a []trace.OpID, b []trace.OpID) []trace.OpID {
	if len(b) == 0 {
		return a
	}
	if !sortedSet(a) || !sortedSet(b) {
		return mergeTaintsSlow(a, b)
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
// appended in place and the ≤maxTaint view slid forward, so a polling loop's
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
	if n := len(set); n > 0 && in[0] > set[n-1] && sortedSet(in) {
		if total := n + len(in); total > cap(set) {
			// Geometric from a handful of ids (most scopes guard once or
			// twice); a full set gets maxTaint slots of room to slide.
			set = append(make([]trace.OpID, 0, total+min(total, maxTaint)), set...)
		}
		return capTaints(append(set, in...))
	}
	if subsetOf(in, set) {
		return set // what mergeTaints returns, with the spare capacity kept
	}
	out := mergeTaints(set, in)
	return out[:len(out):len(out)]
}

// mergeTaint1 merges a single op into a sorted taint set.
func mergeTaint1(a []trace.OpID, id trace.OpID) []trace.OpID {
	// New ops have the highest IDs, so scan from the tail.
	i := len(a)
	for i > 0 && a[i-1] > id {
		i--
	}
	if i > 0 && a[i-1] == id {
		return a
	}
	out := make([]trace.OpID, 0, len(a)+1)
	out = append(out, a[:i]...)
	out = append(out, id)
	out = append(out, a[i:]...)
	return capTaints(out)
}

// sortedSet reports whether s is strictly increasing (sorted and deduped).
func sortedSet(s []trace.OpID) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
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

// capTaints applies the maxTaint bound, keeping the highest (newest) ops.
func capTaints(s []trace.OpID) []trace.OpID {
	if len(s) > maxTaint {
		return s[len(s)-maxTaint:]
	}
	return s
}

// mergeTaintsSlow is the general-case union for inputs that are not sorted
// sets (none are produced by this package; external callers could).
func mergeTaintsSlow(a, b []trace.OpID) []trace.OpID {
	out := make([]trace.OpID, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, id := range out {
		if i == 0 || id != out[w-1] {
			out[w] = id
			w++
		}
	}
	return capTaints(out[:w])
}

// taintsOf unions the taints of several values.
func taintsOf(vs ...Value) []trace.OpID {
	var out []trace.OpID
	for _, v := range vs {
		out = mergeTaints(out, v.taint)
	}
	return out
}
