package sim

import (
	"errors"
	"fmt"

	"fcatch/internal/trace"
)

// Errors surfaced to application code by communication ops.
var (
	// ErrSocket is the SocketException analog: the connection broke (peer
	// crashed, or a kernel-level message drop was injected).
	ErrSocket = errors.New("socket: connection broken")
	// ErrNoRoute means the destination role has no live process.
	ErrNoRoute = errors.New("no route to role")
	// ErrRPCTimeout means the client-side RPC timeout expired.
	ErrRPCTimeout = errors.New("rpc: client timeout")
)

// TriggerWhen says on which side of the matched operation the fault fires.
type TriggerWhen int

const (
	// Before fires the fault right before the op's effect (Section 5:
	// "crashing the node of W right before W").
	Before TriggerWhen = iota
	// After fires right after the op's effect ("right after W").
	After
)

// TriggerAction is the fault kind injected at a fault event.
type TriggerAction int

const (
	// ActCrashSelf crashes the process that is executing the matched op.
	ActCrashSelf TriggerAction = iota
	// ActDropKernel drops the matched send and raises ErrSocket at the
	// sender (kernel-level message drop).
	ActDropKernel
	// ActDropApp silently skips the matched send (application-level drop;
	// legal only for droppable verbs, Cassandra-style).
	ActDropApp
)

// JSON-stable fault vocabulary. This is the single source of truth for
// action and edge names: the simulator's runtime enums, the campaign plan
// encoding, report rendering, and the CLIs all spell faults with these
// strings. Adding an action means extending this table (and the enum above)
// in exactly one place.
const (
	// ActionNodeCrash is the JSON/name form of ActCrashSelf.
	ActionNodeCrash = "node-crash"
	// ActionKernelDrop is the JSON/name form of ActDropKernel.
	ActionKernelDrop = "kernel-drop"
	// ActionAppDrop is the JSON/name form of ActDropApp.
	ActionAppDrop = "app-drop"

	// WhenBefore / WhenAfter are the JSON/name forms of Before / After.
	WhenBefore = "before"
	WhenAfter  = "after"
)

var actionNames = [...]string{
	ActCrashSelf:  ActionNodeCrash,
	ActDropKernel: ActionKernelDrop,
	ActDropApp:    ActionAppDrop,
}

// ActionNames lists every fault action name in canonical (enum) order.
func ActionNames() []string {
	return []string{ActionNodeCrash, ActionKernelDrop, ActionAppDrop}
}

func (a TriggerAction) String() string {
	if a >= 0 && int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", int(a))
}

func (w TriggerWhen) String() string {
	if w == After {
		return WhenAfter
	}
	return WhenBefore
}

// ParseAction maps an action name to its enum; ok is false for unknown names.
func ParseAction(name string) (TriggerAction, bool) {
	for a, s := range actionNames {
		if s == name {
			return TriggerAction(a), true
		}
	}
	return ActCrashSelf, false
}

// ParseWhen maps an edge name to its enum; ok is false for unknown names.
func ParseWhen(name string) (TriggerWhen, bool) {
	switch name {
	case WhenBefore:
		return Before, true
	case WhenAfter:
		return After, true
	}
	return Before, false
}

// FaultSpec is one fault event of a scenario, in its JSON-stable form. The
// same encoding travels from campaign corpora over the distributed-campaign
// wire into the simulator.
//
// Anchoring:
//   - Site != "": site-anchored — the fault fires when the operation at Site
//     reaches its Occurrence-th execution (When edge). Sites are the
//     file:line static IDs recorded in traces, so an event built from a bug
//     report replays against the exact reported op.
//   - Site == "", Delay == 0: step-anchored — a node crash when the logical
//     clock reaches CrashStep (the observation-run form).
//   - Site == "", Delay > 0: relative — a node crash Delay ticks after the
//     previous event of the scenario fires (or after run start, for the
//     first event). With an empty Target it crashes the current incarnation
//     of the most recently crashed role: a second crash landing inside the
//     recovery window.
type FaultSpec struct {
	// CrashStep, for step-anchored events, is the logical-clock step at
	// which the target is killed.
	CrashStep int64 `json:"crash_step,omitempty"`

	// Site/Occurrence/When/Action describe a site-anchored event.
	// Occurrence is 1-based (0 means first); When is WhenBefore/WhenAfter;
	// Action is one of ActionNames(). An event without a site is a node
	// crash: ValidateScenario refuses a drop action, Occurrence or When on
	// one (an empty Action means ActionNodeCrash).
	Site       string `json:"site,omitempty"`
	Occurrence int    `json:"occurrence,omitempty"`
	When       string `json:"when,omitempty"`
	Action     string `json:"action,omitempty"`

	// Target, for crash actions, names the role or PID to crash instead of
	// the process executing the matched op (site-anchored) or is the victim
	// itself (step-anchored). Crash-recovery triggering needs this: W may
	// physically execute on a remote node (an RPC handler invoked by the
	// crash node) while the fault must hit the crash node.
	Target string `json:"target,omitempty"`

	// Delay makes the event relative: it arms Delay ticks after the
	// previous event fires (see anchoring above).
	Delay int64 `json:"delay,omitempty"`

	// Restart overrides the plan's RestartRoles for this event's victim:
	// nil defers to the plan map, >= 0 restarts the crashed role after that
	// many ticks even if the map has no entry, < 0 pins the victim down.
	Restart *int64 `json:"restart,omitempty"`
}

// relative reports whether the event arms off the previous event's firing.
func (s *FaultSpec) relative() bool { return s.Site == "" && s.Delay > 0 }

// FaultEvent is a FaultSpec plus the per-run runtime state the cluster
// tracks while matching it.
type FaultEvent struct {
	FaultSpec
	when   TriggerWhen
	action TriggerAction
	// siteID is Site interned into the cluster's site table (set by
	// NewCluster), so the per-op match compares dense ids, not strings.
	siteID SiteID
	fired  bool
	// armed/armedAt gate step-anchored events: the event fires once the
	// clock reaches armedAt. Relative events stay unarmed until their
	// predecessor fires.
	armed   bool
	armedAt int64
}

// FaultPlan describes every fault injected into one run: an ordered fault
// scenario plus the operator's restart policy. A plan carries per-run state
// and must not be shared between clusters.
type FaultPlan struct {
	// Events is the fault scenario, in order. Today's observation crash is
	// a one-event scenario; composite scenarios chain crashes and drops.
	Events []FaultEvent

	// RestartRoles maps a role to the delay (ticks) after which a crashed
	// process of that role is restarted — the operator/recovery behaviour.
	RestartRoles map[string]int64

	// target is the workload's crash target (role or PID): the default
	// victim of a step-anchored crash with no Target.
	target string

	// siteEvents is the static count of site-anchored events (needSites);
	// sitePending counts the unfired ones so the per-op check is O(1) once
	// the scenario is exhausted.
	siteEvents  int
	sitePending int
	// stepPending/nextStepAt summarize armed, unfired step-anchored events
	// so the per-step check stays O(1) until one is due.
	stepPending int
	nextStepAt  int64
	// lastCrashRole is the role of the most recent injected crash — the
	// default victim of a relative follow-up crash.
	lastCrashRole string
	// firings are the events that actually fired, in firing order — the one
	// record of what the plan did (Outcome.FaultFirings).
	firings []trace.FaultFiring
}

// NewScenarioPlan builds a plan that injects the given fault scenario,
// crashes target (the workload's crash target) at step-anchored events that
// name no victim, and restarts the listed roles after their mapped delay.
// The scenario is copied, never modified.
func NewScenarioPlan(scenario []FaultSpec, target string, restartRoles map[string]int64) *FaultPlan {
	p := &FaultPlan{Events: make([]FaultEvent, len(scenario)), RestartRoles: restartRoles, target: target}
	for i, s := range scenario {
		p.Events[i].FaultSpec = s
	}
	return p
}

// preparePlan resolves the plan's events against this cluster: names become
// enums, sites become dense ids (in event order, so site-table numbering is
// stable), and step-anchored events arm. Called once from NewCluster.
func (c *Cluster) preparePlan(p *FaultPlan) {
	p.siteEvents, p.sitePending = 0, 0
	for i := range p.Events {
		ev := &p.Events[i]
		// Unset names mean the zero edge/action (before / node crash);
		// ValidateScenario refuses unknown ones at every boundary.
		ev.when, _ = ParseWhen(ev.When)
		ev.action, _ = ParseAction(ev.Action)
		ev.fired, ev.armed = false, false
		if ev.Site != "" {
			ev.siteID = c.internSite(ev.Site)
			p.siteEvents++
			p.sitePending++
			continue
		}
		if ev.relative() && i > 0 {
			continue // arms when the predecessor fires
		}
		ev.armed = true
		ev.armedAt = ev.CrashStep
		if ev.Delay > 0 {
			ev.armedAt = ev.Delay // first event: relative to run start
		}
	}
	p.recountStep()
}

// recountStep refreshes the stepPending/nextStepAt summary after events
// fire or arm.
func (p *FaultPlan) recountStep() {
	p.stepPending, p.nextStepAt = 0, 0
	for i := range p.Events {
		ev := &p.Events[i]
		if ev.Site != "" || ev.fired || !ev.armed {
			continue
		}
		if p.stepPending == 0 || ev.armedAt < p.nextStepAt {
			p.nextStepAt = ev.armedAt
		}
		p.stepPending++
	}
}

// armNextEvent arms the scenario event following the one that just fired,
// if it is a relative event still waiting for its predecessor.
func (c *Cluster) armNextEvent(p *FaultPlan, i int) {
	if i+1 >= len(p.Events) {
		return
	}
	next := &p.Events[i+1]
	if next.fired || next.armed || !next.relative() {
		return
	}
	next.armed = true
	next.armedAt = c.clock + next.Delay
	p.recountStep()
}

// crash kills the process target names (a PID, or a role's current
// incarnation) as a plan event's fault and returns the victim PID, or ""
// when the crash hit nothing (unknown target, or the process was already
// dead). It remembers the victim's role so a relative follow-up event can
// re-crash its restarted incarnation, and applies the event's restart
// override.
func (c *Cluster) crash(p *FaultPlan, target string, selfSite SiteID, restart *int64) string {
	pid := c.resolve(target)
	n := c.nodes[pid]
	if n == nil || n.crashed {
		return ""
	}
	p.lastCrashRole = n.Role
	c.crashProcess(n, selfSite, restart)
	return pid
}

// fired marks event i fired, arms its relative successor and records the
// firing: the action it applied, to whom, at which step and anchor.
func (c *Cluster) fired(p *FaultPlan, i int, act TriggerAction, victim string) {
	ev := &p.Events[i]
	ev.fired = true
	c.armNextEvent(p, i)
	f := trace.FaultFiring{Index: i, Action: act.String(), Step: c.clock, Victim: victim}
	if ev.Site != "" {
		p.sitePending--
		f.Site, f.Occurrence, f.When = ev.Site, max(ev.Occurrence, 1), ev.when.String()
	}
	p.firings = append(p.firings, f)
}

// checkTrigger is called by the op layer around every operation's effect.
// It returns the action to apply to the op itself for drop actions; crash
// actions are applied here directly.
func (c *Cluster) checkTrigger(site SiteID, when TriggerWhen, isSend bool) (drop TriggerAction, dropped bool) {
	p := c.pendingPlan
	if p == nil || p.sitePending == 0 || site == NoSite {
		return 0, false
	}
	// Occurrence accounting happens once per op, on the Before edge.
	if when == Before {
		c.siteCounts[site]++
	}
	count := int(c.siteCounts[site])
	for i := range p.Events {
		ev := &p.Events[i]
		if ev.fired || ev.Site == "" || ev.siteID != site || ev.when != when {
			continue
		}
		if count != max(ev.Occurrence, 1) {
			continue
		}
		switch {
		case ev.action == ActCrashSelf:
			cur := c.curThread
			target := ev.Target
			if target == "" {
				target = cur.node.PID
			}
			c.fired(p, i, ev.action, c.crash(p, target, site, ev.Restart))
			if cur.node.crashed {
				// The fault hit the process executing this op: unwind now.
				panic(killedPanic{})
			}
		case isSend:
			c.fired(p, i, ev.action, c.curThread.node.PID)
			return ev.action, true
		default:
			// Consumed on a non-send op: the event fired but dropped nothing.
			c.fired(p, i, ev.action, "")
		}
	}
	return 0, false
}
