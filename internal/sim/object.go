package sim

import (
	"fmt"

	"fcatch/internal/trace"
)

// fieldSlot stores a heap field plus the bookkeeping the detectors need: the
// op that last defined it (the define–use Src link) and the taints the
// stored value carried.
type fieldSlot struct {
	val       Value
	lastWrite trace.OpID
	res       string    // cached resource ID, rendered once per field
	resSym    trace.Sym // trace symbol for res, interned at first traced emit
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
	o := &Object{node: n, id: n.nextObj, class: class, fields: make(map[string]*fieldSlot)}
	n.objects[o.id] = o
	return o
}

// ID returns the object's deterministic identity.
func (o *Object) ID() int64 { return o.id }

// Res returns the trace resource ID for one field of this object. The
// process id (not incarnation-free role) is part of it: heap content dies
// with the process.
func (o *Object) Res(field string) string {
	return o.slot(field).res
}

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
// of packaging the effect into OpReq closures: the closures were the single
// largest allocation source in the op layer, and heap ops are never sends so
// the drop-handling half of Do cannot apply to them.
func (o *Object) Set(ctx *Context, field string, v Value) {
	o.checkAccess(ctx)
	slot := o.slot(field)
	c := ctx.c
	site := ctx.site()
	c.checkTrigger(site, Before, false)
	slot.val = v
	id := c.tracer.emit(ctx.t, opSpec{
		Kind:   trace.KHeapWrite,
		Res:    slot.res,
		ResSym: &slot.resSym,
		Taint:  v.taint,
		Site:   site,
	})
	if id != trace.NoOp {
		slot.lastWrite = id
	}
	c.checkTrigger(site, After, false)
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
	ls := ctx.t.currentLoop()
	if ls != nil {
		kind = trace.KLoopRead
	}
	c := ctx.c
	site := ctx.site()
	c.checkTrigger(site, Before, false)
	out := slot.val
	id := c.tracer.emit(ctx.t, opSpec{
		Kind:   kind,
		Res:    slot.res,
		ResSym: &slot.resSym,
		Src:    slot.lastWrite,
		Site:   site,
	})
	c.checkTrigger(site, After, false)
	ctx.t.yieldStep()
	if id != trace.NoOp {
		out = out.withTaint1(id)
		if ls != nil {
			ls.reads = append(ls.reads, id)
		}
	}
	return out
}

func (o *Object) slot(field string) *fieldSlot {
	s, ok := o.fields[field]
	if !ok {
		s = &fieldSlot{res: fmt.Sprintf("heap:%s:%s%d.%s", o.node.PID, o.class, o.id, field)}
		o.fields[field] = s
	}
	return s
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
	o := ctx.NewObject(name)
	n.namedObjs[name] = o
	return o
}

// NamedCond returns the node's singleton condition object with the given
// name, creating it on first use.
func (ctx *Context) NamedCond(name string) *Cond {
	n := ctx.t.node
	if cv, ok := n.namedConds[name]; ok {
		return cv
	}
	cv := ctx.NewCond(name)
	n.namedConds[name] = cv
	return cv
}
