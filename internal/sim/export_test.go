package sim

import (
	"fmt"
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

// The spares' bounds: how many spares the idle list keeps, and how many
// entries each list or array of a spare holds.
const MaxSpares, MaxSpareItems = maxSpares, maxSpareItems

// IdleCarriers reports how many carriers wait on the process-wide idle list.
func IdleCarriers() int {
	idleCarriers.Lock()
	defer idleCarriers.Unlock()
	return len(idleCarriers.list)
}

// IdleRecords counts the records the idle spares hold by identity: each
// thread, call record and rng by its pointer, each queue and scheduler array
// by its first element's address.
func IdleRecords() map[any]int {
	spares.Lock()
	defer spares.Unlock()
	m := make(map[any]int)
	count := func(p any, n int) {
		if n > 0 {
			m[p]++
		}
	}
	for _, s := range spares.list {
		for _, t := range s.threads {
			m[t]++
		}
		for _, cs := range s.calls {
			m[cs]++
		}
		if s.rng != nil {
			m[s.rng]++
		}
		for _, q := range s.queues {
			for _, a := range q {
				count(unsafe.SliceData(a), cap(a))
			}
		}
		count(unsafe.SliceData(s.threadList), cap(s.threadList))
		count(unsafe.SliceData(s.ready), cap(s.ready))
		count(unsafe.SliceData(s.timers), cap(s.timers))
	}
	return m
}

// IdleLists reports, under "spares", how many spares the idle list holds and
// its bound, and for each list or array of a spare the most entries any held
// spare has there and the item bound ("queue items" counts a spare's queue
// arrays together).
func IdleLists() map[string][2]int {
	spares.Lock()
	defer spares.Unlock()
	m := map[string][2]int{"spares": {len(spares.list), maxSpares}}
	for _, s := range spares.list {
		items := 0
		for _, q := range s.queues {
			for _, a := range q {
				items += cap(a)
			}
		}
		for k, n := range map[string]int{
			"threads": len(s.threads), "calls": len(s.calls),
			"thread list": cap(s.threadList), "ready": cap(s.ready), "timers": cap(s.timers),
			"queue items": items, "queue entries": len(s.queues),
		} {
			m[k] = [2]int{max(m[k][0], n), maxSpareItems}
		}
	}
	return m
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
