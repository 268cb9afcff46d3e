package trace

// Sym is a dense index into a per-trace symbol table. Every string a Record
// carries (machine, PID, site, resource, aux, target) is interned to a Sym,
// so the analyses compare and group records by integer identity instead of
// re-hashing strings, and the on-disk format stores each distinct string
// once. Sym values are only meaningful relative to the Trace that interned
// them; the zero value NoSym always means the empty string.
type Sym uint32

// NoSym is the interned form of "" in every table.
const NoSym Sym = 0

// SymTab interns strings to dense Syms. The zero value is ready to use:
// slot 0 is reserved for the empty string and materialized on first insert.
type SymTab struct {
	strs []string
	idx  map[string]Sym
}

func (st *SymTab) init() {
	if st.idx == nil {
		st.strs = append(st.strs, "")
		st.idx = make(map[string]Sym, 64)
		st.idx[""] = NoSym
	}
}

// Intern returns the Sym for s, adding it to the table if new.
func (st *SymTab) Intern(s string) Sym {
	if s == "" {
		return NoSym
	}
	st.init()
	if y, ok := st.idx[s]; ok {
		return y
	}
	y := Sym(len(st.strs))
	st.strs = append(st.strs, s)
	st.idx[s] = y
	return y
}

// grow pre-sizes the table for n total symbols (a decoder size hint). Only
// worth it before real inserts.
func (st *SymTab) grow(n int) {
	if len(st.idx) > 1 || n <= len(st.strs) {
		return
	}
	st.strs = append(make([]string, 0, n), "")
	st.idx = make(map[string]Sym, n)
	st.idx[""] = NoSym
}

// Lookup returns the Sym for s without interning. The second result is false
// when s has never been interned — callers translating external strings
// (report sites, PIDs from another trace) use it to mean "matches nothing
// here". Lookup is read-only and safe for concurrent use with other readers.
func (st *SymTab) Lookup(s string) (Sym, bool) {
	if s == "" {
		return NoSym, true
	}
	y, ok := st.idx[s]
	return y, ok
}

// Str resolves a Sym back to its string. Out-of-range Syms (including NoSym
// on an empty table) resolve to "".
func (st *SymTab) Str(y Sym) string {
	if int(y) < len(st.strs) {
		return st.strs[y]
	}
	return ""
}

// Len is the number of distinct symbols, including the reserved empty slot.
// Dense per-Sym side tables (Index.ByRes, resource classifications) size
// themselves with it.
func (st *SymTab) Len() int {
	if len(st.strs) == 0 {
		return 1 // the implicit empty slot
	}
	return len(st.strs)
}

// StackID identifies one interned callstack in a trace's StackTab. The zero
// value NoStack is the empty stack.
type StackID uint32

// NoStack is the empty callstack.
const NoStack StackID = 0

// stackNode is one prefix-tree node: the stack it extends plus the frame
// label pushed on top. Two threads whose stacks share a prefix share the
// prefix's nodes, pprof-location-table style.
type stackNode struct {
	parent StackID
	frame  Sym
}

// StackTab interns callstacks as a prefix tree. The tracer maintains each
// thread's current StackID incrementally (push on scope entry, restore on
// exit), so emitting a record costs one 4-byte copy instead of materializing
// a []string. The zero value is ready to use.
type StackTab struct {
	nodes []stackNode
	idx   map[stackNode]StackID
}

func (st *StackTab) init() {
	if st.idx == nil {
		st.nodes = append(st.nodes, stackNode{})
		st.idx = make(map[stackNode]StackID, 64)
	}
}

// grow pre-sizes the table for n total nodes (a decoder size hint). Only
// worth it before real inserts.
func (st *StackTab) grow(n int) {
	if len(st.idx) > 0 || n <= len(st.nodes) {
		return
	}
	st.nodes = append(make([]stackNode, 0, n), stackNode{})
	st.idx = make(map[stackNode]StackID, n)
}

// Push returns the stack formed by pushing frame onto parent, interning it if
// new.
func (st *StackTab) Push(parent StackID, frame Sym) StackID {
	st.init()
	n := stackNode{parent: parent, frame: frame}
	if id, ok := st.idx[n]; ok {
		return id
	}
	id := StackID(len(st.nodes))
	st.nodes = append(st.nodes, n)
	st.idx[n] = id
	return id
}

// Frames returns the stack's frame Syms, outermost first.
func (st *StackTab) Frames(id StackID) []Sym {
	d := 0
	for p := id; p != NoStack && int(p) < len(st.nodes); p = st.nodes[p].parent {
		d++
	}
	if d == 0 {
		return nil
	}
	out := make([]Sym, d)
	for i := d - 1; i >= 0; i-- {
		n := st.nodes[id]
		out[i] = n.frame
		id = n.parent
	}
	return out
}

// Len is the number of interned nodes, including the reserved empty slot.
func (st *StackTab) Len() int {
	if len(st.nodes) == 0 {
		return 1
	}
	return len(st.nodes)
}
