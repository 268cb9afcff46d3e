package sim

import (
	"fmt"
	"math/rand"
	"slices"
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
// thread, call record and rng by its pointer, each queue and scheduler array
// by its first element's address.
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
	each(&idleScheds, func(s schedArrays) {
		for _, a := range [2][]*Thread{s.threads, s.ready} {
			if cap(a) > 0 {
				m[unsafe.SliceData(a)]++
			}
		}
		if cap(s.timers) > 0 {
			m[unsafe.SliceData(s.timers)]++
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
		"scheds":  {length(&idleScheds), idleScheds.max},
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

// RunCheckingReady runs c as Run does and, after every pick, compares the
// scheduler's ready list with a scan of every thread of the run for the
// runnable ones, in spawn order. It returns the outcome and the first
// difference it saw. The check reads the list as runnable() would return
// it but drops nothing: dropping a blocked thread early would hide a second
// listing of it, and leaves the checked run the run Run makes.
func RunCheckingReady(c *Cluster) (*Outcome, error) {
	c.start()
	var err error
	for c.step() {
		if err == nil {
			err = c.checkReady()
		}
	}
	return c.finish(), err
}

func (c *Cluster) checkReady() error {
	var listed, ready, scan []int
	for _, t := range c.ready {
		listed = append(listed, t.id)
		if t.state == tsRunnable {
			ready = append(ready, t.id)
		}
	}
	for _, t := range c.threads {
		if t.state == tsRunnable {
			scan = append(scan, t.id)
		}
	}
	for i, t := range c.ready {
		if !t.queued || i > 0 && listed[i-1] >= t.id {
			return fmt.Errorf("after pick %d: ready list %v is not in strict id order or lists thread %d unmarked", c.out.Picks, listed, t.id)
		}
	}
	if !slices.Equal(ready, scan) {
		return fmt.Errorf("after pick %d: ready list %v, scan %v", c.out.Picks, ready, scan)
	}
	return nil
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
