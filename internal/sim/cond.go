package sim

import (
	"fmt"
	"slices"
	"strconv"

	"fcatch/internal/trace"
)

// Cond is a condition-variable-like synchronization object with latch
// semantics: once signalled it stays signalled, and every pending or future
// Wait passes. (Java condition variables in the modelled systems are used
// through latch/future wrappers; latch semantics also keeps correct runs
// insensitive to benign signal/wait reorderings, so FCatch's pairing rule —
// a wait consumes the first signal timestamped after it — observes exactly
// the fragile orders.)
type Cond struct {
	node    *Node
	id      int64
	name    string
	resSym  trace.Sym // trace symbol of resName(), named at the first kept emit
	set     bool
	payload Value
	err     error
	// waiters are the threads blocked on the latch; the first lives inline
	// in waiterBuf, so a latch with one waiter costs no append. waiters may
	// point into waiterBuf, so a Cond is never copied.
	waiters   []*Thread
	waiterBuf [1]*Thread
}

// NewCond allocates a condition object on the current node.
func (ctx *Context) NewCond(name string) *Cond {
	cv := &Cond{}
	cv.init(ctx.t.node, name)
	return cv
}

// init names a zero Cond as the next object of node n; the RPC layer calls
// it on the reply latch embedded in its call record.
func (cv *Cond) init(n *Node, name string) {
	n.nextObj++
	cv.node, cv.id, cv.name = n, n.nextObj, name
}

// resName is the trace resource ID of this condition instance. The name part
// is the condition's *class*: report deduplication strips the PID and
// instance number, so per-call instances (e.g. RPC reply latches) group
// together.
func (cv *Cond) resName() string {
	return "cv:" + cv.node.PID + ":" + cv.name + "/" + strconv.FormatInt(cv.id, 10)
}

// Signal sets the latch and wakes every waiter, delivering the first value
// (or true) as the wait result. Its disappearance (the signalling node
// crashed, the message that causes it was dropped) is the crash-regular
// hazard.
func (cv *Cond) Signal(ctx *Context, vs ...Value) {
	payload := any(true)
	if len(vs) > 0 {
		payload = vs[0].Data
	}
	cv.signalInternal(ctx, Derive(payload, vs...), nil, NoSite)
}

func (cv *Cond) signalInternal(ctx *Context, v Value, err error, site SiteID) {
	ctx.Do(OpReq{
		Kind:   trace.KSignal,
		ResSym: &cv.resSym,
		resOf:  cv,
		Aux:    cv.name,
		Taint:  v.taint,
		Site:   site,
	}, &OpEffects{Apply: func() error {
		cv.set = true
		cv.payload = v
		cv.err = err
		cv.wakeAll(resumeMsg{val: v, err: err})
		return nil
	}})
}

// failInternal wakes waiters with an error without emitting a signal op —
// used by the RPC layer's fail-fast path (a TCP reset is not a signal).
func (cv *Cond) failInternal(err error) {
	cv.set = true
	cv.err = err
	cv.wakeAll(resumeMsg{err: err})
}

// wakeAll wakes every waiter with msg and lets go of them.
func (cv *Cond) wakeAll(msg resumeMsg) {
	for _, w := range cv.waiters {
		w.wake(msg)
	}
	cv.waiters, cv.waiterBuf[0] = nil, nil
}

// Wait blocks until the latch is signalled. The wait op is recorded at block
// time; it has no timeout, so a lost signal blocks the thread forever — the
// fault-intolerant case of Section 4.2.2.
func (cv *Cond) Wait(ctx *Context) (Value, error) {
	return cv.waitAt(ctx, 0, NoSite)
}

// WaitTimeout blocks until the latch is signalled or ticks elapse. The wait
// op carries the timed flag the timeout-pruning analysis looks for. On
// timeout it returns an error that ErrWaitTimeout recognises.
func (cv *Cond) WaitTimeout(ctx *Context, ticks int64) (Value, error) {
	if ticks <= 0 {
		panic("sim: WaitTimeout needs a positive timeout")
	}
	return cv.waitAt(ctx, ticks, NoSite)
}

var errWaitTimeout = fmt.Errorf("wait: timed out")

// ErrWaitTimeout reports whether err is a wait-timeout.
func ErrWaitTimeout(err error) bool { return err == errWaitTimeout }

func (cv *Cond) waitAt(ctx *Context, timeout int64, site SiteID) (Value, error) {
	var flags uint32
	if timeout > 0 {
		flags = trace.FlagTimedWait
	}
	if site == NoSite {
		site = ctx.site()
	}
	ctx.Do(OpReq{Kind: trace.KWait, ResSym: &cv.resSym, resOf: cv, Aux: cv.name, Flags: flags, Site: site}, nil)
	if cv.set {
		return cv.payload, cv.err
	}
	t := ctx.t
	t.blockToken++
	if cv.waiters == nil {
		cv.waiters = cv.waiterBuf[:0]
	}
	cv.waiters = append(cv.waiters, t)
	if timeout > 0 {
		ctx.c.addTimedWaitTimer(ctx.c.clock+timeout, t)
	}
	// Under the stall rule a timed wait counts as waiting too: only its
	// deadline would move the thread on, and a replay that stays quiescent
	// until then is hung (Config.QuietPicks).
	if (timeout == 0 || ctx.c.cfg.StallPicks > 0) && !t.background() && !t.polling {
		t.waiting = true
		ctx.c.waiting++
	}
	msg := t.block("wait:", cv.name, site)
	if msg.timedOut {
		// Deregister: the latch may fire later for other waiters. Delete
		// clears the vacated slot, so waiterBuf does not keep t.
		if i := slices.Index(cv.waiters, t); i >= 0 {
			cv.waiters = slices.Delete(cv.waiters, i, i+1)
		}
		return Value{}, errWaitTimeout
	}
	return msg.val, msg.err
}
