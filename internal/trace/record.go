// Package trace defines the trace model FCatch records while observing
// correct runs of a distributed system, and the indexes its analyses use.
//
// A trace is a flat, timestamp-ordered sequence of Records. Every record of a
// traced operation carries the four parts the paper lists in Section 3.2:
// operation type, callstack, a logical timestamp (the RDTSCP stand-in), and a
// resource/communication ID. Records additionally carry the dynamic data- and
// control-dependence facts (taints) that substitute for the paper's WALA
// static analysis, and the activation frame they executed under, from which
// causal (causor/causee) relationships are derived.
package trace

import (
	"fmt"
	"strings"
)

// OpID identifies one record within a single run's trace. IDs are assigned
// densely in emission order starting at 1, so they double as a total order
// per run and the zero value means "no op".
type OpID int64

// NoOp is the nil OpID (no causor, no source write, ...). It is the zero
// value, so unset fields naturally mean "none".
const NoOp OpID = 0

// Kind enumerates the operation types FCatch traces.
type Kind int

const (
	KInvalid Kind = iota

	// Activation records: every other record points at the activation it
	// executed under via Record.Frame.
	KThreadStart  // a thread began; Causor = the op that created it (NoOp for process roots)
	KHandlerBegin // an event/message/RPC handler invocation began on an existing thread; Causor = enqueue/send/call op
	KHandlerEnd
	KThreadExit

	// Causal operations (Section 4.1): their disappearance makes their
	// causees disappear.
	KThreadCreate // create(t)
	KRPCCall      // call(R); Target = callee PID, Aux = method
	KMsgSend      // send(m); Target = receiver PID, Aux = verb
	KEventEnq     // EnQ(e); Aux = event type
	KKVUpdate     // update(s) through the synchronization service; Res = znode
	KKVNotify     // notify(s); Causor = the update op

	// Blocking operations (Section 4.1).
	KSignal // condition-variable signal; Res = CV id
	KWait   // condition-variable wait; Res = CV id; Timed reported via Flags

	// Synchronization-loop instrumentation (custom while-loop signals).
	KLoopEnter // Aux = loop id
	KLoopRead  // heap read that affects the loop exit; Res = heap resource
	KLoopExit  // Flags carry whether a time source taints the exit condition
	KTimeRead  // read of the system clock (System.currentTimeMillis analog)

	// Shared-resource accesses: heap.
	KHeapRead
	KHeapWrite

	// Shared-resource accesses: persistent storage (local files, global
	// files, key-value-store records). Res encodes which store.
	KStCreate
	KStDelete
	KStRead
	KStWrite
	KStRename
	KStExists
	KStList

	// Impact sinks (Section 4.3.3).
	KThrow        // exception throw; Aux = exception kind
	KCatch        // exception handled; Aux = exception kind
	KLogFatal     // severe/fatal-level log
	KLogError     // error-level log
	KServiceStart // startup of a service

	// Fault bookkeeping (never emitted by the systems themselves).
	KCrash   // a process crashed; Aux = PID
	KRestart // a process restarted; Aux = new PID
)

var kindNames = map[Kind]string{
	KInvalid: "invalid", KThreadStart: "thread-start", KHandlerBegin: "handler-begin",
	KHandlerEnd: "handler-end", KThreadExit: "thread-exit", KThreadCreate: "thread-create",
	KRPCCall: "rpc-call", KMsgSend: "msg-send", KEventEnq: "event-enq",
	KKVUpdate: "kv-update", KKVNotify: "kv-notify", KSignal: "signal", KWait: "wait",
	KLoopEnter: "loop-enter", KLoopRead: "loop-read", KLoopExit: "loop-exit",
	KTimeRead: "time-read", KHeapRead: "heap-read", KHeapWrite: "heap-write",
	KStCreate: "st-create", KStDelete: "st-delete", KStRead: "st-read",
	KStWrite: "st-write", KStRename: "st-rename", KStExists: "st-exists",
	KStList: "st-list", KThrow: "throw", KCatch: "catch", KLogFatal: "log-fatal",
	KLogError: "log-error", KServiceStart: "service-start", KCrash: "crash",
	KRestart: "restart",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsCausal reports whether the disappearance of this operation makes other
// operations (its causees) disappear.
func (k Kind) IsCausal() bool {
	switch k {
	case KThreadCreate, KRPCCall, KMsgSend, KEventEnq, KKVUpdate:
		return true
	}
	return false
}

// IsActivation reports whether records of this kind open an activation frame.
func (k Kind) IsActivation() bool {
	return k == KThreadStart || k == KHandlerBegin
}

// IsWriteLike reports whether the op defines the content of its resource.
func (k Kind) IsWriteLike() bool {
	switch k {
	case KHeapWrite, KStCreate, KStDelete, KStWrite, KStRename, KKVUpdate:
		return true
	}
	return false
}

// IsReadLike reports whether the op consumes the content of its resource.
func (k Kind) IsReadLike() bool {
	switch k {
	case KHeapRead, KLoopRead, KStRead, KStExists, KStList:
		return true
	}
	return false
}

// Flag bits on Record.Flags.
const (
	FlagTimedWait    = 1 << iota // the wait carries a timeout parameter
	FlagTimeInExit               // a time source taints the loop exit condition
	FlagHandlerCtx               // op executed inside an RPC/message/event handler (or callee)
	FlagDropped                  // the send was dropped by fault injection
	FlagRecoveryRoot             // activation explicitly registered as a recovery handler
	FlagDroppable                // message uses a droppable verb (application-level drop allowed)
	FlagEphemeral                // KV update concerns an ephemeral znode
	FlagFailed                   // the operation errored (e.g. create of an existing file); it did not define content
)

// Record is one traced operation. All string-valued attributes are interned
// in the owning Trace's symbol table (Sym fields) and the callstack is an
// interned prefix-tree node (StackID), so a record is a fixed-size struct of
// integers plus the two taint slices; resolve with Trace.Str / Trace.Data /
// Trace.Format.
type Record struct {
	ID     OpID
	TS     int64 // logical timestamp (scheduler step)
	Frame  OpID  // activation record (KThreadStart/KHandlerBegin) this op ran under
	Src    OpID  // for read-like ops: the write op that defined the value consumed
	Causor OpID  // for activations and KKVNotify: the op this one causally depends on

	Taint []OpID // data-dependence taints of the value involved
	Ctl   []OpID // control-dependence taints active at emission

	Thread int // global thread id
	Kind   Kind

	Machine Sym     // physical machine the op executed on
	PID     Sym     // process the op physically executed in
	Site    Sym     // static id of the operation: file:line of the call site
	Res     Sym     // resource ID ("heap:pid:obj.field", "gfs:/path", "zk:/path", "lfs:machine:/path", "cv:...")
	Aux     Sym     // CV id / RPC method / message verb / event type / loop id / exception kind
	Target  Sym     // for sends and calls: destination PID
	Stack   StackID // interned callstack at emission
	Flags   uint32
}

// HasFlag reports whether flag f is set.
func (r *Record) HasFlag(f uint32) bool { return r.Flags&f != 0 }

// Format renders a record's compact single-line form, resolving its symbols
// through this trace's table — the human-readable face of the interned model,
// used by tests and `fcatch grep`.
func (t *Trace) Format(r *Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d t=%d %s/%d %s", r.ID, r.TS, t.Str(r.PID), r.Thread, r.Kind)
	if r.Res != NoSym {
		fmt.Fprintf(&b, " res=%s", t.Str(r.Res))
	}
	if r.Aux != NoSym {
		fmt.Fprintf(&b, " aux=%s", t.Str(r.Aux))
	}
	if r.Target != NoSym {
		fmt.Fprintf(&b, " ->%s", t.Str(r.Target))
	}
	if r.Site != NoSym {
		fmt.Fprintf(&b, " @%s", t.Str(r.Site))
	}
	return b.String()
}
