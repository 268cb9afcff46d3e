package sim

import (
	"time"

	"fcatch/internal/trace"
)

// timer is a scheduled wakeup: either a thread wake (possibly a timed-wait
// expiry) or a scheduler-context callback (e.g. a planned role restart).
type timer struct {
	at    int64
	seq   int64
	t     *Thread
	token int64 // thread's blockToken at arm time; stale timers are ignored
	timed bool  // wake with timedOut=true (timed wait expiry)
	fn    func()
}

// timerHeap is a hand-rolled binary min-heap ordered by (at, seq). Concrete
// push/pop methods keep timers out of interface values, so arming or firing a
// timer never allocates once the backing array has grown to steady state.
type timerHeap []timer

func (h timerHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *timerHeap) push(tm timer) {
	*h = append(*h, tm)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *timerHeap) pop() timer {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = timer{} // release fn/thread references
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

func (c *Cluster) addTimer(at int64, t *Thread, fn func()) {
	c.nextSeq++
	tm := timer{at: at, seq: c.nextSeq, t: t, fn: fn}
	if t != nil {
		tm.token = t.blockToken
	}
	if fn != nil {
		c.fnTimers++
	}
	c.timers.push(tm)
}

func (c *Cluster) addTimedWaitTimer(at int64, t *Thread) {
	c.nextSeq++
	c.timers.push(timer{at: at, seq: c.nextSeq, t: t, token: t.blockToken, timed: true})
}

// fireDue fires every timer due at or before the current clock. Returns
// whether any fired.
func (c *Cluster) fireDue() bool {
	fired := false
	for len(c.timers) > 0 && c.timers[0].at <= c.clock {
		tm := c.timers.pop()
		fired = true
		switch {
		case tm.fn != nil:
			c.fnTimers--
			tm.fn()
		case tm.t != nil:
			if tm.t.state == tsBlocked && tm.t.blockToken == tm.token {
				tm.t.wake(resumeMsg{timedOut: tm.timed})
			}
		}
	}
	return fired
}

// advanceToNextTimer jumps the clock forward to the next timer when the
// system is otherwise idle. Returns false when no timers remain.
func (c *Cluster) advanceToNextTimer() bool {
	if len(c.timers) == 0 {
		return false
	}
	if c.timers[0].at > c.clock {
		c.clock = c.timers[0].at
	}
	return c.fireDue()
}

// applyPlanAtStep fires the plan's step-anchored scenario events (the
// observation crash, and relative follow-up crashes) when their step
// arrives.
func (c *Cluster) applyPlanAtStep() {
	p := c.pendingPlan
	if p == nil || p.stepPending == 0 || c.clock < p.nextStepAt {
		return
	}
	for i := range p.Events {
		ev := &p.Events[i]
		if ev.Site != "" || ev.fired || !ev.armed || c.clock < ev.armedAt {
			continue
		}
		ev.fired = true
		c.armNextEvent(p, i)
		target := ev.Target
		if target == "" && ev.Delay > 0 {
			// A relative crash with no explicit target re-crashes the most
			// recently crashed role's current (restarted) incarnation.
			target = p.lastCrashRole
		}
		pid := target
		if n := c.nodes[pid]; n == nil {
			// Treat as a role name: crash its current incarnation.
			pid = c.Lookup(target)
		}
		firing := trace.FaultFiring{Index: i, Action: ev.action.String(), Step: c.clock}
		if pid != "" {
			firing.Victim = c.injectCrash(pid, c.sitePlan, ev.Restart)
		}
		p.firings = append(p.firings, firing)
	}
	p.recountStep()
}

// workloadDone reports whether every non-daemon thread has finished and no
// scheduled callback (e.g. a planned role restart) is still pending — a
// restart will spawn fresh non-daemon work. Both conditions are tracked
// incrementally, so the check is O(1) per scheduler step.
func (c *Cluster) workloadDone() bool {
	return c.liveNonDaemon == 0 && c.fnTimers == 0
}

// runnable returns the runnable threads in thread-id order, reusing one
// scratch slice. Threads are spawned with ascending ids and c.threads keeps
// spawn order, so a single in-order scan yields the deterministic order the
// scheduler needs without sorting or allocating.
func (c *Cluster) runnable() []*Thread {
	out := c.runScratch[:0]
	for _, t := range c.threads {
		if t.state == tsRunnable {
			out = append(out, t)
		}
	}
	c.runScratch = out
	return out
}

// compactThreads drops finished threads from the scheduler's scan list once
// they outnumber the live ones. Live threads keep their relative (spawn-id)
// order, so runnable() still yields the deterministic order, and the trigger
// depends only on deterministic counters, so paired runs compact identically.
// Workloads that churn short-lived handler threads otherwise pay an
// ever-growing runnable scan per step.
func (c *Cluster) compactThreads() {
	w := 0
	for _, t := range c.threads {
		if t.alive() {
			c.threads[w] = t
			w++
		}
	}
	for i := w; i < len(c.threads); i++ {
		c.threads[i] = nil
	}
	c.threads = c.threads[:w]
	c.deadThreads = 0
}

// step runs one scheduler step: the step-boundary work, then the pick, and
// then the picked thread until its next pause. It returns false when the run
// is over (workload complete, deadlock, clock budget or stall).
//
// The sequencing is fixed, and every trace depends on it: the due timers
// fire, then the plan's step events are applied (a crash kills its victims
// on the spot), and only then is a runnable thread chosen. The pick is the
// run's only rng draw, over the runnable threads in c.threads order.
func (c *Cluster) step() bool {
	c.curThread = nil
	c.fireDue()
	if c.deadThreads > 64 && c.deadThreads*2 > len(c.threads) {
		c.compactThreads()
	}
	for {
		c.applyPlanAtStep()
		if c.workloadDone() {
			c.out.Completed = true
			return false
		}
		runnable := c.runnable()
		if len(runnable) == 0 {
			if c.advanceToNextTimer() {
				continue
			}
			return false // deadlock: blocked non-daemon threads remain
		}
		if c.clock >= c.cfg.MaxSteps {
			c.out.StepBudgetHit = true
			return false
		}
		if c.cfg.StallPicks > 0 && c.out.Picks-c.lastProgress > c.cfg.StallPicks {
			c.out.StepBudgetHit, c.stalled = true, true
			return false
		}
		t := runnable[c.rng.Intn(len(runnable))]
		c.clock++
		c.out.Picks++
		c.curThread = t
		t.state = tsRunning
		t.resume()
		return true
	}
}

// endStretch closes the stall rule's current stretch of picks without a new
// site, keeping the longest in Outcome.LongestStall.
func (c *Cluster) endStretch() {
	c.out.LongestStall = max(c.out.LongestStall, c.out.Picks-c.lastProgress)
	c.lastProgress = c.out.Picks
}

// Run executes the cluster to completion: until the workload finishes, the
// system deadlocks, the clock budget is exhausted or the run stalls, and
// returns the outcome (the trace, if enabled, via Trace()). A thread panic
// that is not an app exception propagates out of Run and abandons every live
// thread's carrier.
func (c *Cluster) Run() *Outcome {
	if c.running {
		panic("sim: cluster already ran")
	}
	c.running = true
	c.startWall = time.Now()

	for c.step() {
	}

	// Record the hang sites of the survivors, then kill them: unwinding them
	// is what returns their carriers.
	for _, t := range c.threads {
		if !t.alive() {
			continue
		}
		if !t.daemon {
			reason := t.blockReason
			if t.state == tsRunnable {
				reason = "live (budget exhausted)"
				if c.stalled {
					reason = "live (stalled)"
				}
			}
			if t.loopName != "" {
				reason = "loop:" + t.loopName
			}
			c.out.Hung = append(c.out.Hung, HangSite{
				PID: t.node.PID, Thread: t.id, Name: t.name,
				Site: c.siteStr(t.blockSite), Reason: reason,
			})
		}
		c.kill(t)
	}

	if c.cfg.StallPicks > 0 {
		c.endStretch()
	}
	c.tracer.finish()
	c.out.Steps = c.clock
	if p := c.pendingPlan; p != nil {
		c.out.FaultFirings = p.firings
	}
	c.out.Elapsed = time.Since(c.startWall)
	return &c.out
}
