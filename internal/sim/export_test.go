package sim

// UsePortableCallers switches callsite to the runtime.Callers PC source — the
// one ports without frame pointers select at build time — until the returned
// function is called. Not safe while clusters run on other goroutines.
func UsePortableCallers() (restore func()) {
	prev := callerPCs
	callerPCs = portableCallers
	return func() { callerPCs = prev }
}

// IdleCarriers reports how many carriers wait on the process-wide idle list.
func IdleCarriers() int {
	idleCarriers.Lock()
	defer idleCarriers.Unlock()
	return len(idleCarriers.list)
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
