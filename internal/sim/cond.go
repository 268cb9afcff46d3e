package sim

import (
	"fmt"

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
	res     string    // cached Res(), rendered once at creation
	resSym  trace.Sym // trace symbol for res, interned at first traced emit
	set     bool
	payload Value
	err     error
	waiters []*Thread
}

// NewCond allocates a condition object on the current node.
func (ctx *Context) NewCond(name string) *Cond {
	n := ctx.t.node
	n.nextObj++
	cv := &Cond{node: n, id: n.nextObj, name: name}
	cv.res = fmt.Sprintf("cv:%s:%s/%d", n.PID, name, cv.id)
	return cv
}

// Res is the trace resource ID of this condition instance. The name part is
// the condition's *class*: report deduplication strips the PID and instance
// number, so per-call instances (e.g. RPC reply latches) group together.
func (cv *Cond) Res() string { return cv.res }

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
		Res:    cv.res,
		ResSym: &cv.resSym,
		Aux:    cv.name,
		Taint:  v.taint,
		Site:   site,
		Apply: func() {
			cv.set = true
			cv.payload = v
			cv.err = err
			for _, w := range cv.waiters {
				w.wake(resumeMsg{val: v, err: err})
			}
			cv.waiters = nil
		},
	})
}

// failInternal wakes waiters with an error without emitting a signal op —
// used by the RPC layer's fail-fast path (a TCP reset is not a signal).
func (cv *Cond) failInternal(err error) {
	cv.set = true
	cv.err = err
	for _, w := range cv.waiters {
		w.wake(resumeMsg{err: err})
	}
	cv.waiters = nil
}

// Wait blocks until the latch is signalled. The wait op is recorded at block
// time; it has no timeout, so a lost signal blocks the thread forever — the
// fault-intolerant case of Section 4.2.2.
func (cv *Cond) Wait(ctx *Context) (Value, error) {
	return cv.waitAt(ctx, 0, NoSite)
}

// WaitTimeout blocks until the latch is signalled or ticks elapse. The wait
// op carries the timed flag the timeout-pruning analysis looks for. On
// timeout it returns ErrRPCTimeout-free (false) semantics via err.
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
	ctx.Do(OpReq{Kind: trace.KWait, Res: cv.res, ResSym: &cv.resSym, Aux: cv.name, Flags: flags, Site: site})
	if cv.set {
		return cv.payload, cv.err
	}
	t := ctx.t
	t.blockToken++
	cv.waiters = append(cv.waiters, t)
	if timeout > 0 {
		ctx.c.addTimedWaitTimer(ctx.c.clock+timeout, t)
	}
	msg := t.block("wait:"+cv.name, site)
	if msg.timedOut {
		// Deregister: the latch may fire later for other waiters.
		for i, w := range cv.waiters {
			if w == t {
				cv.waiters = append(cv.waiters[:i], cv.waiters[i+1:]...)
				break
			}
		}
		return Value{}, errWaitTimeout
	}
	return msg.val, msg.err
}
