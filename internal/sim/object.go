package sim

import (
	"fmt"
	"strconv"
	"strings"

	"fcatch/internal/trace"
)

// fieldSlot stores a heap field plus the bookkeeping the detectors need: the
// op that last defined it (the define–use Src link) and the taints the
// stored value carried.
type fieldSlot struct {
	val       Value
	lastWrite trace.OpID
	resSym    trace.Sym // trace symbol of the field's resource, named at its first kept emit
	obj       *Object
	field     string
}

// resName is the field's trace resource ID. The process id (not the
// incarnation-free role) is part of it: heap content dies with the process.
func (s *fieldSlot) resName() string {
	o := s.obj
	return "heap:" + o.node.PID + ":" + o.class + strconv.FormatInt(o.id, 10) + "." + s.field
}

// Object is a heap object owned by one process. Object IDs are deterministic
// per-process allocation counters, the analog of JVM hash codes across a
// checkpoint-paired run: both runs of a pair allocate identically up to the
// crash point, so pre-crash IDs coincide (Section 3.1).
type Object struct {
	node   *Node
	id     int64
	class  string
	fields map[string]*fieldSlot
}

// NewObject allocates a heap object of the given class on the current node.
func (ctx *Context) NewObject(class string) *Object {
	n := ctx.t.node
	n.nextObj++
	return &Object{node: n, id: n.nextObj, class: class, fields: make(map[string]*fieldSlot)}
}

// ID returns the object's deterministic identity.
func (o *Object) ID() int64 { return o.id }

func (o *Object) checkAccess(ctx *Context) {
	if o.node != ctx.t.node {
		panic(fmt.Sprintf("sim: cross-process heap access: %s/%s%d touched from %s (use RPC or messages)",
			o.node.PID, o.class, o.id, ctx.PID()))
	}
	if o.node.crashed {
		panic(killedPanic{})
	}
}

// Set writes a field. The write is traced when it executes inside a handler
// context (selective tracing) and records the taints of the stored value.
//
// Heap accesses dominate traced runs, so Set and Get inline the Do pipeline
// (trigger check → effect → record → trigger check → scheduler step) instead
// of passing the effect to Do as an OpEffects callback: heap ops are never
// sends, so the drop-handling half of Do cannot apply to them.
func (o *Object) Set(ctx *Context, field string, v Value) {
	o.checkAccess(ctx)
	slot := o.slot(field)
	c := ctx.c
	site := ctx.site()
	c.checkTrigger(site, trace.WhenBefore, false)
	slot.val = v
	id := c.tracer.emit(ctx.t, OpReq{
		Kind:   trace.KHeapWrite,
		ResSym: &slot.resSym,
		resOf:  slot,
		Taint:  v.taint,
		Site:   site,
	})
	if id != trace.NoOp {
		slot.lastWrite = id
	}
	c.checkTrigger(site, trace.WhenAfter, false)
	ctx.t.yieldStep()
}

// Get reads a field. Inside a sync-loop condition the read is recorded as a
// loop read (always traced); otherwise as a plain heap read (traced in
// handler contexts). The returned value is tainted by this read and by the
// taints stored with the value, and the record carries the define–use link
// to the write that produced the content.
func (o *Object) Get(ctx *Context, field string) Value {
	o.checkAccess(ctx)
	slot := o.slot(field)
	kind := trace.KHeapRead
	if ctx.t.inSyncLoop() {
		kind = trace.KLoopRead
	}
	c := ctx.c
	site := ctx.site()
	c.checkTrigger(site, trace.WhenBefore, false)
	out := slot.val
	id := c.tracer.emit(ctx.t, OpReq{
		Kind:   kind,
		ResSym: &slot.resSym,
		resOf:  slot,
		Src:    slot.lastWrite,
		Site:   site,
	})
	c.checkTrigger(site, trace.WhenAfter, false)
	ctx.t.yieldStep()
	if id != trace.NoOp {
		out = out.WithTaint(id)
	}
	return out
}

// slot looks field up as given and copies it only when it makes the slot,
// so an existing field's key stays wherever its caller built it.
func (o *Object) slot(field string) *fieldSlot {
	s, ok := o.fields[field]
	if !ok {
		key := o.node.c.keys.copy(field)
		s = &fieldSlot{obj: o, field: key}
		o.fields[key] = s
	}
	return s
}

// keyChunk is the size of one key arena chunk. A cluster is one run, so a
// larger chunk is paid again by every run that needs only a few keys.
const keyChunk = 256

// keyArena copies the keys a run stores (heap fields, named objects and
// named conds) into shared chunks: a copy costs a malloc only when it starts
// a chunk. A chunk is a strings.Builder grown once to its full size, so
// appending never moves the bytes that earlier copies point at.
type keyArena struct{ chunk strings.Builder }

func (a *keyArena) copy(s string) string {
	if len(s) > keyChunk {
		return strings.Clone(s) // a chunk of its own
	}
	if a.chunk.Cap()-a.chunk.Len() < len(s) {
		a.chunk = strings.Builder{}
		a.chunk.Grow(keyChunk)
	}
	start := a.chunk.Len()
	a.chunk.WriteString(s)
	return a.chunk.String()[start:]
}

// Peek inspects a field without scheduling, tracing, or taint — for workload
// checkers examining final state from outside the simulation.
func (o *Object) Peek(field string) any {
	if s, ok := o.fields[field]; ok {
		return s.val.Data
	}
	return nil
}

// NamedObject returns the current node's singleton object with the given
// name, creating it on first use. Handlers registered at configure time use
// it to share state with the process's main threads.
func (ctx *Context) NamedObject(name string) *Object {
	n := ctx.t.node
	if o, ok := n.namedObjs[name]; ok {
		return o
	}
	key := ctx.c.keys.copy(name)
	o := ctx.NewObject(key)
	n.namedObjs[key] = o
	return o
}

// NamedCond returns the node's singleton condition object with the given
// name, creating it on first use.
func (ctx *Context) NamedCond(name string) *Cond {
	n := ctx.t.node
	if cv, ok := n.namedConds[name]; ok {
		return cv
	}
	key := ctx.c.keys.copy(name)
	cv := ctx.NewCond(key)
	n.namedConds[key] = cv
	return cv
}
