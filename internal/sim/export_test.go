package sim

import (
	"math/rand"
	"unsafe"
)

// UsePortableCallers switches callsite to the runtime.Callers PC source — the
// one ports without frame pointers select at build time — until the returned
// function is called. Not safe while clusters run on other goroutines.
func UsePortableCallers() (restore func()) {
	prev := callerPCs
	callerPCs = portableCallers
	return func() { callerPCs = prev }
}

// IdleCarriers reports how many carriers wait on the process-wide idle list.
func IdleCarriers() int { return length(&idleCarriers) }

// IdleRecords counts the records the idle lists hold by identity: each
// thread, call record and rng by its pointer, each queue array by its first
// element's address.
func IdleRecords() map[any]int {
	m := make(map[any]int)
	each(&idleThreads, func(t *Thread) { m[t]++ })
	each(&idleCalls, func(cs *callState) { m[cs]++ })
	each(&idleRngs, func(r *rand.Rand) { m[r]++ })
	each(&idleQueues, func(q [3][]queuedItem) {
		for _, a := range q {
			if cap(a) > 0 {
				m[unsafe.SliceData(a)]++
			}
		}
	})
	return m
}

// IdleLists reports each record list's length and bound, by list.
func IdleLists() map[string][2]int {
	return map[string][2]int{
		"threads": {length(&idleThreads), idleThreads.max},
		"calls":   {length(&idleCalls), idleCalls.max},
		"queues":  {length(&idleQueues), idleQueues.max},
		"rngs":    {length(&idleRngs), idleRngs.max},
	}
}

func each[T any](l *idleList[T], f func(T)) {
	l.Lock()
	defer l.Unlock()
	for _, x := range l.list {
		f(x)
	}
}

func length[T any](l *idleList[T]) int {
	l.Lock()
	defer l.Unlock()
	return len(l.list)
}

// LiveThreads reports how many of c's threads have not finished.
func LiveThreads(c *Cluster) int {
	n := 0
	for _, t := range c.threads {
		if t.alive() {
			n++
		}
	}
	return n
}

// SetQuietShare sets the quiescence rule's share of MaxSteps (0 turns the
// rule off) until the returned function is called. Not safe while clusters
// run on other goroutines.
func SetQuietShare(share int64) (restore func()) {
	prev := quietShare
	quietShare = share
	return func() { quietShare = prev }
}

// ReachSite records, as the op pipeline does for every op, that ctx's thread
// executes an op at the source position site: test files in this package
// resolve to the substrate, so their own ops all share one site.
func ReachSite(ctx *Context, site string) {
	ctx.reached(ctx.c.internSite(site))
}
