package sim

import (
	"iter"
	"math/rand"
	"sync"

	"fcatch/internal/trace"
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
// timer-heap array, each node's dispatch-queue arrays and cleared maps in
// node start order, its rng, and its site tables: the PC cache and the
// zeroed SiteID-indexed tables. NewCluster takes one whole spare; while the
// cluster runs, spawnThread, Call and newNode draw from it with no lock, and
// handBack adds the run's records to what is left and puts it back.
type spare struct {
	threads           []*Thread
	calls             []*callState
	threadList, ready []*Thread
	timers            timerHeap
	nodes             []nodeSpare
	rng               *rand.Rand

	siteCache  map[uintptr]SiteID // never cleared: a SiteID never goes stale
	siteSyms   []trace.Sym
	siteCounts []int32
	siteSeen   []bool
}

// nodeSpare is what one node hands on: its three dispatch-queue arrays and
// its maps, emptied.
type nodeSpare struct {
	queues [3][]queuedItem // msgQ, eventQ and replyQ
	nodeTables
	entries int // what the maps held when handed back (the items bound's measure of them)
}

// The spares' bounds. The largest runs of the six workloads (seeds 1–3,
// crashed at steps 20–2000) hand back 46 threads, 1 543 call records, a
// thread list of 1 538 threads, a ready list of at most 64, a timer heap of
// at most 37 slots and 8 nodes' queue arrays and maps, the longest queue 585
// items (an MR AM's message queue); the bench runs two clusters at a time.
// Each list or array of a spare holds at most maxSpareItems entries, and its
// node entries together at most maxSpareItems items: a queue slot, or a map
// entry (a map counts at least mapGroup). One entry of every kind costs
// 416 + 8 B (a thread), 704 + 8 B (a call record), 8 + 8 B (thread and
// ready list slots), 48 B (a timer), at most 130 B (a node item: a 112 B
// queue slot, or a map slot of at most 57 B at the 7/16 load a map can fall
// to as it grows) and 72 B (a node entry's queue headers): 1 402 B. Since a
// node's six maps weigh at least 48 items, at most 64 nodes keep their 288 B
// of map headers. Full spares hold at most 4 × (3 072 × 1 402 B + 18 KB)
// plus 4 × 4.9 KB of rng state, about 17.3 MB. A map is weighed by the
// entries it holds when handed back: pendingCalls, whose entries leave as
// replies arrive, keeps the slots of the most calls the node had in flight
// at once. The site tables come on top, bounded by the program, not by any
// input: 9 B per SiteID across the three indexed arrays and 16 B per return
// PC in the cache. A whole fcatch-bench -all run interns 394 sites, and no
// cache holds over 442 PCs.
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

// takeSpare gives a new cluster a finished run's spare: the scheduler arrays,
// the rng and the site tables become the cluster's own, and the records and
// node entries are drawn as the run needs them. Seed on a reused rng
// restarts exactly the sequence a new one would produce.
func (c *Cluster) takeSpare() {
	s, _ := spares.take()
	c.threads, c.ready, c.timers, c.rng = s.threadList, s.ready, s.timers, s.rng
	c.siteCache, c.siteSyms, c.siteCounts, c.siteSeen = s.siteCache, s.siteSyms, s.siteCounts, s.siteSeen
	s.threadList, s.ready, s.timers, s.rng = nil, nil, nil, nil
	s.siteCache, s.siteSyms, s.siteCounts, s.siteSeen = nil, nil, nil, nil
	c.spare = s
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.cfg.Seed))
	} else {
		c.rng.Seed(c.cfg.Seed)
	}
	if c.siteCache == nil {
		c.siteCache = make(map[uintptr]SiteID, 64)
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

// takeSpare gives the cluster's i-th node the dispatch-queue arrays and maps
// of the spare's i-th node, so a node of a repeated run gets what its
// namesake grew, and makes the maps when the entry has none. handBack
// overwrites the entry with this node's.
func (n *Node) takeSpare(i int) {
	var ns nodeSpare
	if s := n.c.spare.nodes; i < len(s) {
		ns = s[i]
	}
	n.msgQ.items, n.eventQ.items, n.replyQ.items = ns.queues[0], ns.queues[1], ns.queues[2]
	n.nodeTables = ns.nodeTables
	if n.rpcHandlers == nil { // the six maps are kept or dropped together
		n.nodeTables = nodeTables{
			rpcHandlers:   make(map[string]rpcHandler),
			msgHandlers:   make(map[string]msgHandler),
			eventHandlers: make(map[string]eventHandler),
			pendingCalls:  make(map[int64]*callState),
			namedObjs:     make(map[string]*Object),
			namedConds:    make(map[string]*Cond),
		}
	}
}

// recycled returns a run's array emptied for the next run, or nil when it
// grew past max items and is left to the GC. Only a's [0:len) can be
// non-zero: every path that shrinks an array zeroes what it drops
// (runnable, timerHeap.pop), and a handed-back array is zero to its
// capacity.
func recycled[S ~[]E, E any](a S, max int) S {
	if cap(a) > max {
		return nil
	}
	clear(a)
	return a[:0]
}

// recycled returns the queue's array for the next run: only its
// unconsumed items, [head:len), can be non-zero, since pop zeroes each item
// it hands out.
func (q *dispatchQueue) recycled(max int) []queuedItem {
	clear(q.items[q.head:])
	return recycled(q.items[:0], max)
}

// emptied clears a handed-back map and adds what it weighs in the items
// bound to *n: the entries it held, at least mapGroup (a map's smallest
// array of slots).
func emptied[M ~map[K]V, K comparable, V any](m M, n *int) {
	*n += max(len(m), mapGroup)
	clear(m)
}

// mapGroup is how many slots the smallest map that holds an entry has.
const mapGroup = 8

// handBack ends a finished run by adding its records to the cluster's spare,
// each zeroed so that the spare keeps nothing of this cluster reachable, and
// putting the spare back for the next cluster; the cluster keeps no
// reference to any of it (its nodes' maps are nil afterwards, its snapshot
// siteStrs of the process-wide site table stays). Only Run calls it, after
// the teardown has killed the survivors: until the run is over a Cond
// waiter list, a timer, pendingCalls or a stash may still point at a
// record. A thread that did not finish (its unwinding blocked) and a call
// still parked in rpcStash, whose handler never started, are left to the
// GC.
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
	s.siteCache = c.siteCache
	s.siteSyms, s.siteCounts, s.siteSeen = recycled(c.siteSyms, maxSpareItems), recycled(c.siteCounts, maxSpareItems), recycled(c.siteSeen, maxSpareItems)

	// Node i's entry goes to entry i; entries past this run's nodes keep what
	// an earlier run left there, already emptied. The run's nodes come first
	// in the items bound.
	items := 0
	for i := range max(len(c.nodeList), len(s.nodes)) {
		var ns nodeSpare
		if i < len(c.nodeList) {
			n := c.nodeList[i]
			ns.queues = [3][]queuedItem{
				n.msgQ.recycled(maxSpareItems), n.eventQ.recycled(maxSpareItems), n.replyQ.recycled(maxSpareItems),
			}
			ns.nodeTables = n.nodeTables
			t := &ns.nodeTables
			emptied(t.rpcHandlers, &ns.entries)
			emptied(t.msgHandlers, &ns.entries)
			emptied(t.eventHandlers, &ns.entries)
			emptied(t.pendingCalls, &ns.entries)
			emptied(t.namedObjs, &ns.entries)
			emptied(t.namedConds, &ns.entries)
			n.msgQ, n.eventQ, n.replyQ, n.nodeTables = dispatchQueue{}, dispatchQueue{}, dispatchQueue{}, nodeTables{}
		} else {
			ns = s.nodes[i]
		}
		for j, a := range ns.queues {
			if items+cap(a) > maxSpareItems {
				ns.queues[j] = nil
			}
			items += cap(ns.queues[j])
		}
		if items+ns.entries > maxSpareItems {
			ns.nodeTables, ns.entries = nodeTables{}, 0
		}
		items += ns.entries
		if i < len(s.nodes) {
			s.nodes[i] = ns
		} else if i < maxSpareItems {
			s.nodes = append(s.nodes, ns)
		}
	}

	spares.put(*s)
	c.spare = spare{}
	c.threads, c.ready, c.timers, c.curThread, c.rng = nil, nil, nil, nil, nil
	c.siteCache, c.siteSyms, c.siteCounts, c.siteSeen = nil, nil, nil, nil
}
