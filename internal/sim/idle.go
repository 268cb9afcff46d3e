package sim

import (
	"iter"
	"math/rand"
	"sync"
)

// idleList is a process-wide stack of records that finished runs hand to
// the clusters built after them (DESIGN.md §11, "Carriers" and "Run
// records"). Every cluster shares it, so take and put are the only
// synchronisation between clusters that run on different goroutines.
type idleList[T any] struct {
	sync.Mutex
	list []T
	max  int // records kept at most (0: no bound)
}

// take pops the most recently handed-back record.
func (l *idleList[T]) take() (T, bool) {
	l.Lock()
	defer l.Unlock()
	return pop(&l.list)
}

// put pushes x unless the list holds its bound.
func (l *idleList[T]) put(x T) {
	l.Lock()
	defer l.Unlock()
	if l.max == 0 || len(l.list) < l.max {
		l.list = append(l.list, x)
	}
}

// pop removes the last element of *s and returns it, zeroing its slot so
// that the array keeps nothing the caller now owns reachable.
func pop[S ~[]E, E any](s *S) (E, bool) {
	var x E
	n := len(*s)
	if n == 0 {
		return x, false
	}
	x, (*s)[n-1] = (*s)[n-1], x
	*s = (*s)[:n-1]
	return x, true
}

// spare is everything a finished run hands on to the next cluster: its
// zeroed spawned threads and call records, its thread list, ready list and
// timer-heap array, each node's three dispatch-queue arrays in node start
// order, and its rng. NewCluster takes one whole spare; while the cluster
// runs, spawnThread, Call and newNode draw from it with no lock, and
// handBack adds the run's records to what is left and puts it back.
type spare struct {
	threads           []*Thread
	calls             []*callState
	threadList, ready []*Thread
	timers            timerHeap
	queues            [][3][]queuedItem // node i's msgQ, eventQ and replyQ arrays
	rng               *rand.Rand
}

// The spares' bounds. The largest runs of the six workloads (seeds 1–3,
// crashed at steps 20–2000) hand back 46 threads, 1 543 call records, a
// thread list of 1 538 threads, a ready list of at most 64, a timer heap of
// at most 37 slots and 8 nodes' queue arrays, the longest 585 items (an MR
// AM's message queue); the bench runs two clusters at a time. Each list or
// array of a spare holds at most maxSpareItems entries, and its queue arrays
// together at most maxSpareItems items, so one entry of every kind costs
// 416 + 8 B (a thread), 704 + 8 B (a call record), 8 + 8 B (thread and
// ready list slots), 48 B (a timer), 112 B (a queue item) and 72 B (a node's
// queue headers): 1 384 B. Full spares hold at most 4 × 3 072 × 1 384 B plus
// 4 × 4.9 KB of rng state, about 17 MB.
const (
	maxSpares     = 4
	maxSpareItems = 3072 // a longer list or array is left to the GC
)

var (
	// idleCarriers has no bound: a carrier left off the list would keep its
	// goroutine parked for the life of the process. It never holds more
	// carriers than threads were ever live at once. Carriers stay apart from
	// the spares because a thread gives its carrier back as it finishes, in
	// the middle of a run, to whichever cluster needs one next.
	idleCarriers idleList[*carrier]
	spares       = idleList[spare]{max: maxSpares}
)

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

// takeSpare gives a new cluster a finished run's spare: the scheduler arrays
// and the rng become the cluster's own, and the records and queue arrays are
// drawn as the run needs them. Seed on a reused rng restarts exactly the
// sequence a new one would produce.
func (c *Cluster) takeSpare() {
	s, _ := spares.take()
	c.threads, c.ready, c.timers, c.rng = s.threadList, s.ready, s.timers, s.rng
	s.threadList, s.ready, s.timers, s.rng = nil, nil, nil, nil
	c.spare = s
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.cfg.Seed))
	} else {
		c.rng.Seed(c.cfg.Seed)
	}
}

// fromSpare returns a zero record from one of the cluster's spare lists
// (spare.threads for spawnThread, spare.calls for Call), or a new one when
// the list is empty.
func fromSpare[T any](l *[]*T) *T {
	if x, ok := pop(l); ok {
		return x
	}
	return new(T)
}

// takeQueues gives the cluster's i-th node the dispatch-queue arrays of the
// spare's i-th node, so a node of a repeated run gets the arrays its
// namesake grew. handBack overwrites the entry with this node's arrays.
func (n *Node) takeQueues(i int) {
	if q := n.c.spare.queues; i < len(q) {
		n.msgQ.items, n.eventQ.items, n.replyQ.items = q[i][0], q[i][1], q[i][2]
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

// handBack ends a finished run by adding its records to the cluster's spare,
// each zeroed so that the spare keeps nothing of this cluster reachable, and
// putting the spare back for the next cluster; the cluster keeps no
// reference to any of it. Only Run calls it, after the teardown has killed
// the survivors: until the run is over a Cond waiter list, a timer,
// pendingCalls or a stash may still point at a record. A thread that did not
// finish (its unwinding blocked) and a call still parked in rpcStash, whose
// handler never started, are left to the GC.
func (c *Cluster) handBack() {
	s := &c.spare
	for _, t := range c.threads {
		if t.alive() || t.car != nil {
			continue
		}
		if cs := t.call; cs != nil {
			if len(s.calls) < maxSpareItems {
				*cs = callState{}
				s.calls = append(s.calls, cs)
			}
		} else if len(s.threads) < maxSpareItems {
			*t = Thread{}
			s.threads = append(s.threads, t)
		}
	}
	s.threadList = recycled(c.threads, maxSpareItems)
	s.ready = recycled(c.ready, maxSpareItems)
	s.timers = recycled(c.timers, maxSpareItems)
	s.rng = c.rng

	// Node i's arrays go to entry i; entries past this run's nodes keep what
	// an earlier run left there, already zeroed. The run's arrays come first
	// in the items bound.
	items := 0
	for i := range max(len(c.nodeList), len(s.queues)) {
		var q [3][]queuedItem
		if i < len(c.nodeList) {
			n := c.nodeList[i]
			q = [3][]queuedItem{n.msgQ.items, n.eventQ.items, n.replyQ.items}
			for j, a := range q {
				q[j] = recycled(a, maxSpareItems)
			}
			n.msgQ, n.eventQ, n.replyQ = dispatchQueue{}, dispatchQueue{}, dispatchQueue{}
			clear(n.pendingCalls)
		} else {
			q = s.queues[i]
		}
		for j, a := range q {
			if items+cap(a) > maxSpareItems {
				q[j] = nil
			}
			items += cap(q[j])
		}
		if i < len(s.queues) {
			s.queues[i] = q
		} else if i < maxSpareItems {
			s.queues = append(s.queues, q)
		}
	}

	spares.put(*s)
	c.spare = spare{}
	c.threads, c.ready, c.timers, c.curThread, c.rng = nil, nil, nil, nil, nil
}
