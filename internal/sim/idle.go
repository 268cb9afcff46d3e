package sim

import (
	"iter"
	"math/rand"
	"sync"
)

// idleList is a process-wide stack of records that finished runs hand to
// the clusters built after them (DESIGN.md §11, "Carriers"). Every cluster
// shares it, so its mutex is the only synchronisation between clusters that
// run on different goroutines.
type idleList[T any] struct {
	sync.Mutex
	list []T
	max  int // records kept at most (0: no bound)
}

// take pops the most recently handed-back record.
func (l *idleList[T]) take() (T, bool) {
	l.Lock()
	defer l.Unlock()
	var x T
	n := len(l.list)
	if n == 0 {
		return x, false
	}
	x, l.list[n-1] = l.list[n-1], x
	l.list = l.list[:n-1]
	return x, true
}

// full reports whether the list holds its bound; the caller holds the lock.
func (l *idleList[T]) full() bool { return l.max > 0 && len(l.list) >= l.max }

// put pushes x unless the list is full; the caller holds the lock.
func (l *idleList[T]) put(x T) {
	if !l.full() {
		l.list = append(l.list, x)
	}
}

// The lists' bounds. The largest runs of the six workloads (seeds 1–3,
// crashed at steps 20–2000) hand back 46 threads, 1 543 call records, the
// queue arrays of 8 nodes, the longest 585 items (an MR AM's message
// queue), one rng and one set of scheduler arrays: a thread list of 1 538
// threads, a ready list of at most 64 and a timer heap of at most 37 slots;
// the bench runs two clusters at a time. Full lists hold at most
// 256 × 416 B of threads, 4 096 × 704 B of call records, 32 × 3 queue arrays
// of up to 1 024 × 112 B, 16 × 4.9 KB of rng state and 16 scheduler sets of
// up to 4 096 × (8 + 8 + 48) B: 0.1 + 2.9 + 11 + 0.08 + 4.2 MB, about 18 MB.
const (
	maxIdleThreads    = 256
	maxIdleCalls      = 4096
	maxIdleQueueSets  = 32
	maxIdleQueueItems = 1024 // a longer queue array is left to the GC
	maxIdleRngs       = 16
	maxIdleSchedSets  = 16
	maxIdleSchedItems = 4096 // a longer scheduler array is left to the GC
)

var (
	// idleCarriers has no bound: a carrier left off the list would keep its
	// goroutine parked for the life of the process. It never holds more
	// carriers than threads were ever live at once.
	idleCarriers idleList[*carrier]
	idleThreads  = idleList[*Thread]{max: maxIdleThreads}
	idleCalls    = idleList[*callState]{max: maxIdleCalls}
	// idleQueues holds one node's three dispatch-queue arrays per entry
	// (msgQ, eventQ, replyQ), so a node of a repeated run gets the arrays
	// its namesake grew.
	idleQueues = idleList[[3][]queuedItem]{max: maxIdleQueueSets}
	idleRngs   = idleList[*rand.Rand]{max: maxIdleRngs}
	idleScheds = idleList[schedArrays]{max: maxIdleSchedSets}
)

// schedArrays are a cluster's scheduler arrays: its thread list, its ready
// list and its timer heap.
type schedArrays struct {
	threads, ready []*Thread
	timers         timerHeap
}

// takeCarrier hands out an idle carrier, creating one when none is idle: a
// carrier costs eleven allocations to create and none to reuse.
func takeCarrier() *carrier {
	if k, ok := idleCarriers.take(); ok {
		return k
	}
	k := &carrier{}
	k.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		k.yield = yield
		for {
			k.t.run()
			k.t = nil
			yield(struct{}{})
		}
	})
	return k
}

// giveCarrier puts back the carrier of a thread that finished.
func giveCarrier(k *carrier) {
	idleCarriers.Lock()
	idleCarriers.put(k)
	idleCarriers.Unlock()
}

// newThread returns a zero Thread for spawnThread.
func newThread() *Thread {
	if t, ok := idleThreads.take(); ok {
		return t
	}
	return &Thread{}
}

// newCallState returns a zero call record for Call.
func newCallState() *callState {
	if cs, ok := idleCalls.take(); ok {
		return cs
	}
	return &callState{}
}

// newRand returns the cluster's rng seeded with seed: Seed on a reused
// source restarts exactly the sequence a new one would produce.
func newRand(seed int64) *rand.Rand {
	if r, ok := idleRngs.take(); ok {
		r.Seed(seed)
		return r
	}
	return rand.New(rand.NewSource(seed))
}

// takeSched gives a new cluster the thread lists and timer heap array of a
// finished one.
func (c *Cluster) takeSched() {
	if s, ok := idleScheds.take(); ok {
		c.threads, c.ready, c.timers = s.threads, s.ready, s.timers
	}
}

// recycled returns a run's array emptied and zeroed for the next run, or nil
// when it grew past max items and is left to the GC.
func recycled[S ~[]E, E any](a S, max int) S {
	if cap(a) > max {
		return nil
	}
	clear(a[:cap(a)])
	return a[:0]
}

// takeQueues gives a new node the dispatch-queue arrays of a finished one.
func (n *Node) takeQueues() {
	if q, ok := idleQueues.take(); ok {
		n.msgQ.items, n.eventQ.items, n.replyQ.items = q[0], q[1], q[2]
	}
}

// handBack ends a finished run by giving its records to the idle lists,
// each zeroed so that the list keeps nothing of this cluster reachable, and
// then drops the cluster's own references to them. Only Run calls it, after
// the teardown has killed the survivors: until the run is over a Cond
// waiter list, a timer, pendingCalls or a stash may still point at a
// record. A thread that did not finish (its unwinding blocked) and a call
// still parked in rpcStash, whose handler never started, are left to the
// GC.
func (c *Cluster) handBack() {
	idleThreads.Lock()
	idleCalls.Lock()
	for _, t := range c.threads {
		if t.alive() || t.car != nil {
			continue
		}
		if cs := t.call; cs != nil {
			if !idleCalls.full() {
				*cs = callState{}
				idleCalls.put(cs)
			}
		} else if !idleThreads.full() {
			*t = Thread{}
			idleThreads.put(t)
		}
	}
	idleCalls.Unlock()
	idleThreads.Unlock()

	idleScheds.Lock()
	idleScheds.put(schedArrays{
		recycled(c.threads, maxIdleSchedItems),
		recycled(c.ready, maxIdleSchedItems),
		recycled(c.timers, maxIdleSchedItems),
	})
	idleScheds.Unlock()
	c.threads, c.ready, c.timers, c.curThread = nil, nil, nil, nil

	// The last node's arrays go first, so the first node of the next run
	// takes the first node's.
	idleQueues.Lock()
	for i := len(c.nodeList) - 1; i >= 0; i-- {
		n := c.nodeList[i]
		q := [3][]queuedItem{n.msgQ.items, n.eventQ.items, n.replyQ.items}
		for j, a := range q {
			q[j] = recycled(a, maxIdleQueueItems)
		}
		idleQueues.put(q)
		n.msgQ, n.eventQ, n.replyQ = dispatchQueue{}, dispatchQueue{}, dispatchQueue{}
		clear(n.pendingCalls)
	}
	idleQueues.Unlock()

	idleRngs.Lock()
	idleRngs.put(c.rng)
	idleRngs.Unlock()
	c.rng = nil
}
