package sim

import (
	"cmp"
	"slices"
	"time"
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
		target := ev.Target
		if target == "" {
			// A step crash with no explicit target kills the workload's
			// crash target; a relative one re-crashes the most recently
			// crashed role's current (restarted) incarnation.
			target = p.target
			if ev.Delay > 0 {
				target = p.lastCrashRole
			}
		}
		// A siteless event is a node crash (preparePlan sets its action).
		c.fired(p, i, c.crash(p, target, c.sitePlan, ev.Restart))
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

// enqueue puts a thread that became runnable on the ready list, at its id's
// place, unless it is listed already. Threads get ascending ids as they
// spawn, so a new thread is appended and a woken one is inserted.
func (c *Cluster) enqueue(t *Thread) {
	if t.queued {
		return
	}
	t.queued = true
	n := len(c.ready)
	if n == 0 || c.ready[n-1].id < t.id {
		c.ready = append(c.ready, t)
		return
	}
	i, _ := slices.BinarySearchFunc(c.ready, t.id, func(r *Thread, id int) int { return cmp.Compare(r.id, id) })
	c.ready = slices.Insert(c.ready, i, t)
}

// runnable returns the runnable threads in thread-id order: the ready list,
// once it has dropped the threads that blocked or ended since they were
// listed. The thread a step picks stays listed while it runs, so a yield
// costs the list nothing.
func (c *Cluster) runnable() []*Thread {
	w := 0
	for _, t := range c.ready {
		if t.state == tsRunnable {
			c.ready[w] = t
			w++
		} else {
			t.queued = false
		}
	}
	clear(c.ready[w:])
	c.ready = c.ready[:w]
	return c.ready
}

// quiescent reports whether only daemons can change the run: every live
// thread that is not background (a daemon or an RPC handler serving one)
// waits on a latch with no timeout or polls in a likely-sync SyncLoop, no
// restart is armed and every fault event has fired. A poller's timer only
// re-runs its condition, which stays false until another thread writes; a
// Sleep has a timer that will move its thread on, so a sleeper keeps the run
// from being quiescent, and so does a WaitTimeout unless the stall rule is
// on (Cond.waitAt). The counts are kept incrementally, so the check is O(1).
func (c *Cluster) quiescent() bool {
	if c.waiting != c.liveNonDaemon-c.serving || c.fnTimers != 0 {
		return false
	}
	p := c.pendingPlan
	return p == nil || p.sitePending == 0 && p.stepPending == 0
}

// step runs one scheduler step: the step-boundary work, then the pick, and
// then the picked thread until its next pause. It returns false when the run
// is over, with Outcome.Stop naming the rule that ended it.
//
// The sequencing is fixed, and every trace depends on it: the due timers
// fire, then the plan's step events are applied (a crash kills its victims
// on the spot), and only then is a runnable thread chosen. The pick is the
// run's only rng draw, over the runnable threads in thread-id order.
func (c *Cluster) step() bool {
	c.curThread = nil
	c.fireDue()
	for {
		c.applyPlanAtStep()
		if c.workloadDone() {
			c.out.Stop = StopDone
			return false
		}
		runnable := c.runnable()
		if len(runnable) == 0 {
			if c.advanceToNextTimer() {
				continue
			}
			c.out.Stop = StopDeadlock // blocked non-daemon threads remain
			return false
		}
		if c.clock >= c.cfg.MaxSteps {
			c.out.Stop = StopBudget
			return false
		}
		if c.cfg.StallPicks > 0 && c.out.Picks-c.lastProgress > c.cfg.StallPicks {
			c.out.Stop = StopStall
			return false
		}
		if c.quietPicks > 0 && c.quiescent() {
			if c.quietSince < 0 {
				c.quietSince = c.out.Picks
			}
			if c.out.Picks-c.quietSince >= c.quietPicks {
				c.out.Stop = StopQuiescent
				return false
			}
		} else {
			c.endQuiet()
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
// site, keeping the longest in Outcome.LongestStall. A new site is progress
// the quiescence rule counts too, so it restarts the quiescent stretch.
func (c *Cluster) endStretch() {
	c.out.LongestStall = max(c.out.LongestStall, c.out.Picks-c.lastProgress)
	c.lastProgress = c.out.Picks
	c.endQuiet()
}

// endQuiet closes the current quiescent stretch, if any, keeping the longest
// in Outcome.LongestQuiet.
func (c *Cluster) endQuiet() {
	if c.quietSince >= 0 {
		c.out.LongestQuiet = max(c.out.LongestQuiet, c.out.Picks-c.quietSince)
		c.quietSince = -1
	}
}

// Run executes the cluster to completion: until the workload finishes, the
// system deadlocks, or a hang rule (clock budget, stall, quiescence) cuts the
// run, and returns the outcome (the trace, if enabled, via Trace()). It ends
// by handing the run's thread and call records, queue and scheduler arrays
// and rng to the next cluster (handBack). A thread panic that is not an app
// exception propagates out of Run, abandons every live thread's carrier and
// hands nothing back.
func (c *Cluster) Run() *Outcome {
	c.start()
	for c.step() {
	}
	return c.finish()
}

// start marks the cluster running; a cluster runs once.
func (c *Cluster) start() {
	if c.running {
		panic("sim: cluster already ran")
	}
	c.running = true
	c.startWall = time.Now()
}

// finish ends a run whose last step returned false: it records the hang
// sites of the survivors and kills them (unwinding them is what returns
// their carriers), completes the outcome and hands the run's records back.
func (c *Cluster) finish() *Outcome {
	for _, t := range c.threads {
		if !t.alive() {
			continue
		}
		if !t.background() {
			reason := t.blockReason + t.blockObject
			if t.state == tsRunnable {
				reason = "live (budget exhausted)"
				if c.out.Stop == StopStall {
					reason = "live (stalled)"
				}
			}
			if t.loopName != "" {
				reason = "loop:" + t.loopName
			}
			c.out.Hung = append(c.out.Hung, HangSite{
				PID: t.node.PID, Thread: t.id, Name: t.name,
				Site: c.SiteName(t.blockSite), Reason: reason,
			})
		}
		c.kill(t)
	}

	if c.cfg.StallPicks > 0 {
		c.endStretch()
	}
	c.endQuiet()
	c.out.Steps = c.clock
	if p := c.pendingPlan; p != nil {
		c.out.FaultFirings = p.firings
	}
	c.out.Elapsed = time.Since(c.startWall)
	c.handBack()
	return &c.out
}
