package sim

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"fcatch/internal/trace"
)

// TracingMode selects what the tracer records (Section 3.2 / Section 8.2).
type TracingMode int

const (
	// TraceOff disables tracing entirely (the paper's uninstrumented baseline).
	TraceOff TracingMode = iota
	// TraceSelective records happens-before ops, storage ops, sync-loop reads,
	// and heap accesses only inside RPC/message/event handlers and callees —
	// FCatch's production setting.
	TraceSelective
	// TraceExhaustive additionally records every heap access anywhere — the
	// Section 8.2 ablation that makes real systems keel over.
	TraceExhaustive
)

// Config parameterizes a cluster run.
type Config struct {
	Seed    int64
	Tracing TracingMode
	// MaxSteps is the clock budget: a run whose clock reaches it is hung. A
	// run is hung sooner once it has been quiescent for QuietPicks() picks.
	MaxSteps int64

	// StallPicks, when >0, is the stall rule: the run is hung once the
	// scheduler has resumed threads that many times (Outcome.Picks) since a
	// non-daemon thread last executed an op at a site no non-daemon thread of
	// the run had reached before, whatever the clock reads. Each site is new
	// only once, so such a run ends within (sites + 1) × (StallPicks + 1)
	// picks. Trigger replays set it from their workload's fault-free run.
	StallPicks int64

	// TraceTickCost is added to the logical clock per traced record,
	// modelling instrumentation slowdown inside simulated time. It is what
	// lets the exhaustive-tracing ablation perturb gossip timing (§8.2).
	TraceTickCost int64

	// RPCClientTimeout, when >0, gives every RPC client wait a timeout of
	// that many ticks (the wait is then recorded as a timed wait and calls
	// return ErrRPCTimeout on expiry). Hadoop-MR's RPC client famously has
	// none, which is bug MR3.
	RPCClientTimeout int64

	// RPCFailFast makes in-flight calls fail immediately when the callee
	// crashes (TCP reset analog). Every Table 1 workload sets it; only the
	// toy workload runs without it.
	RPCFailFast bool

	// Plan is the fault plan for this run (nil = fault-free).
	Plan *FaultPlan

	// Fold decides where a traced run's ops go. nil keeps every op as a
	// record in Trace().Records, for whatever analyses the complete trace
	// afterwards. A fold is passed each op as a Fact instead, and the run
	// keeps no trace: Trace() is nil, and the run interns no symbols or
	// stacks and builds no resource names. A fold that reads no dependences
	// (Fold.Deps) also spares the run numbering its ops and merging taints.
	// Either way TraceTickCost is charged per selected op, so a folded run
	// makes the schedule its kept twin makes. Injection runs (campaigns,
	// trigger replays) fold; they keep a verdict or a signature, not a trace.
	Fold Fold
}

// DefaultMaxSteps bounds runs that hang.
const DefaultMaxSteps = 400_000

// quietShare sizes the quiescence rule: a run in which every live non-daemon
// thread waits on a latch with no timeout or polls in a sync loop, no restart
// is armed and every fault event has fired can only be changed by its
// daemons, and it is hung once it stays so for MaxSteps/quietShare picks. The
// longest quiescent stretch of a run that went on to finish is under 2.5 %
// of its MaxSteps (DESIGN.md §11, "Quiescent runs"). A variable only so that
// tests can turn the rule off (0) and compare.
var quietShare int64 = 5

// quietStallShare sizes the quiescence rule under the stall rule: a trigger
// replay is hung once it stays quiescent for StallPicks/quietStallShare
// picks, if that is fewer than MaxSteps/quietShare. No replay of the six
// workloads at seeds 1–10 that ends ok or check stays quiescent for more
// than 0.483 of that budget, a 2.07× margin (the inject package's
// TestStallCutsOnlyHangs fails at half).
const quietStallShare = 3

// QuietPicks is the quiescence rule's budget under cfg: the picks a
// quiescent run may make before it is hung, MaxSteps/quietShare or, under the
// stall rule, StallPicks/quietStallShare if that is fewer. 0 turns the rule
// off.
func (cfg Config) QuietPicks() int64 {
	if quietShare == 0 {
		return 0
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	picks := maxSteps / quietShare
	if cfg.StallPicks > 0 {
		picks = min(picks, cfg.StallPicks/quietStallShare)
	}
	return picks
}

// Why a run ended (Outcome.Stop).
const (
	StopDone      = "done"      // every non-daemon thread finished
	StopDeadlock  = "deadlock"  // nothing could run and no timer was armed
	StopBudget    = "budget"    // the clock reached MaxSteps
	StopStall     = "stall"     // StallPicks picks passed with no new site
	StopQuiescent = "quiescent" // Config.QuietPicks() picks in which only daemons could act
)

// Cluster is one simulated distributed system instance. Only Run's loop and
// the threads it resumes, one at a time, mutate it, so it needs no locking.
type Cluster struct {
	cfg   Config
	rng   *rand.Rand
	spare spare // what the previous run handed on, drawn from as the run goes (idle.go)

	clock   int64
	nextTID int
	nextSeq int64 // deterministic id source for messages/calls/events

	nodes    map[string]*Node // PID -> process (API-boundary lookups)
	nodeList []*Node          // every process in start order (internal iteration)
	threads  []*Thread        // every thread of the run, in spawn order
	ready    []*Thread        // runnable threads in id order, plus any that stopped since runnable() last ran
	timers   timerHeap
	running  bool

	curThread     *Thread // the thread running this step (nil between steps)
	liveNonDaemon int     // non-daemon threads still alive (workloadDone is O(1))
	serving       int     // live non-daemon threads that serve a daemon (Thread.servesDaemon)
	waiting       int     // threads with Thread.waiting or Thread.polling set
	quietPicks    int64   // cfg.QuietPicks(): the quiescence rule's budget (0: off)
	quietSince    int64   // Outcome.Picks when the run last became quiescent; -1 while it is not
	fnTimers      int     // armed scheduler-callback timers

	// Role identities are interned to dense indices at first boot, so service
	// resolution, incarnation counting and restart bookkeeping index a slice
	// instead of hashing through role-keyed maps.
	roleIdx map[string]int
	roles   []roleState // roleID -> the role's state

	// Site identities: every static op site (file:line, pseudo-sites, "plan")
	// is interned once into a dense cluster-local table. Hot paths — trigger
	// matching, occurrence counting, hang bookkeeping, the tracer — carry and
	// compare SiteIDs; strings are rendered only at the boundary.
	siteIdx    map[string]SiteID
	siteStrs   []string
	siteSyms   []trace.Sym           // SiteID -> trace Sym (0 = not yet interned there)
	siteCounts []int32               // SiteID -> occurrences, for trigger points
	siteCache  map[uintptr]SiteID    // PC -> SiteID (NoSite = substrate frame)
	sitePCs    [sitePCWindow]uintptr // callsite's scratch (one thread runs at a time)

	// Stall rule bookkeeping, kept only when cfg.StallPicks > 0.
	siteSeen     []bool // SiteID -> a non-daemon thread has executed an op there
	lastProgress int64  // Outcome.Picks when a non-daemon thread last reached a new site

	// Pre-interned fixed sites (pseudo-sites that are not source positions).
	sitePlan          SiteID // "plan"
	siteUnknown       SiteID // "unknown" (no app frame within the PC window)
	siteRPCClientWait SiteID
	siteRPCReplySig   SiteID
	siteRPCReplySend  SiteID

	tracer *tracer
	out    Outcome
	facts  map[string]any
	keys   keyArena // heap field, named object and named cond keys, copied at first use

	crashHooks     []func(pid string)
	convictSubs    map[string][]string // watched role -> subscriber PIDs (verb "convict")
	recoveryLabels map[string]bool     // handler labels registered as recovery roots
	pendingPlan    *FaultPlan
	startWall      time.Time
}

// roleState is what the cluster keeps per role.
type roleState struct {
	name    string
	service *Node // live incarnation (nil = none)
	incarn  int   // incarnations started so far
	bootFn  func(*Context)
	bootMac string
}

// NewCluster creates an empty cluster.
func NewCluster(cfg Config) *Cluster {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	c := &Cluster{
		cfg:            cfg,
		nodes:          make(map[string]*Node),
		roleIdx:        make(map[string]int),
		siteIdx:        make(map[string]SiteID, 64),
		siteStrs:       []string{""},
		siteSyms:       []trace.Sym{0},
		siteCounts:     []int32{0},
		siteCache:      make(map[uintptr]SiteID, 64),
		facts:          make(map[string]any),
		convictSubs:    make(map[string][]string),
		recoveryLabels: make(map[string]bool),
		pendingPlan:    cfg.Plan,
		quietPicks:     cfg.QuietPicks(),
		quietSince:     -1,
	}
	c.takeSpare()
	c.siteIdx[""] = NoSite
	c.sitePlan = c.internSite("plan")
	c.siteUnknown = c.internSite("unknown")
	c.siteRPCClientWait = c.internSite(SiteRPCClientWait)
	c.siteRPCReplySig = c.internSite(SiteRPCReplySig)
	c.siteRPCReplySend = c.internSite(SiteRPCReplySend)
	c.tracer = newTracer(c)
	if p := c.pendingPlan; p != nil {
		c.preparePlan(p)
	}
	return c
}

// internSite interns a site string into the cluster's dense site table.
func (c *Cluster) internSite(s string) SiteID {
	if s == "" {
		return NoSite
	}
	if id, ok := c.siteIdx[s]; ok {
		return id
	}
	id := SiteID(len(c.siteStrs))
	c.siteStrs = append(c.siteStrs, s)
	c.siteSyms = append(c.siteSyms, 0)
	c.siteCounts = append(c.siteCounts, 0)
	c.siteIdx[s] = id
	return id
}

// SiteName renders a SiteID back to its string form (boundary output only).
func (c *Cluster) SiteName(id SiteID) string {
	if int(id) < len(c.siteStrs) {
		return c.siteStrs[id]
	}
	return ""
}

// roleID interns a role name to its dense index.
func (c *Cluster) roleID(role string) int {
	if id, ok := c.roleIdx[role]; ok {
		return id
	}
	id := len(c.roles)
	c.roleIdx[role] = id
	c.roles = append(c.roles, roleState{name: role})
	return id
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Clock returns the current logical time.
func (c *Cluster) Clock() int64 { return c.clock }

// Trace returns the trace recorded so far (nil when tracing is off or the
// run folds).
func (c *Cluster) Trace() *trace.Trace { return c.tracer.trace }

// SetFact publishes an app-level fact (e.g. a job result) that workload
// checkers inspect after the run.
func (c *Cluster) SetFact(key string, v any) { c.facts[key] = v }

// Fact retrieves a published fact (nil if absent).
func (c *Cluster) Fact(key string) any { return c.facts[key] }

// FactStr retrieves a fact as a string.
func (c *Cluster) FactStr(key string) string {
	if s, ok := c.facts[key].(string); ok {
		return s
	}
	return ""
}

// OnProcessCrash registers a hook invoked (in the crashing step) whenever a
// process crashes. The KV store uses it to expire ephemeral znodes.
func (c *Cluster) OnProcessCrash(fn func(pid string)) {
	c.crashHooks = append(c.crashHooks, fn)
}

// SubscribeConvict makes subscriber receive a "convict" message (carrying the
// dead PID) whenever a process of the watched role crashes — the stand-in for
// Cassandra's IFailureDetectionEventListener::convict.
func (c *Cluster) SubscribeConvict(watchedRole, subscriberPID string) {
	c.convictSubs[watchedRole] = append(c.convictSubs[watchedRole], subscriberPID)
}

// MarkRecoveryHandler registers a handler label (e.g. "event:rs-deleted" or
// "msg:convict") as a developer-specified recovery interface (Section 4.3.1:
// "If developers specify recovery-handler interfaces or functions, FCatch
// can identify more recovery operations"). Every invocation of the handler
// is flagged as a recovery root in traces.
func (c *Cluster) MarkRecoveryHandler(label string) {
	c.recoveryLabels[label] = true
}

// Node returns the process with the given PID (nil if unknown).
func (c *Cluster) Node(pid string) *Node { return c.nodes[pid] }

// PIDs returns all process IDs in start order.
func (c *Cluster) PIDs() []string {
	out := make([]string, len(c.nodeList))
	for i, n := range c.nodeList {
		out[i] = n.PID
	}
	return out
}

// Lookup resolves a role to its current live process PID ("" if none).
func (c *Cluster) Lookup(role string) string {
	if id, ok := c.roleIdx[role]; ok {
		if n := c.roles[id].service; n != nil {
			return n.PID
		}
	}
	return ""
}

// StartProcess boots a new process of the given role on a machine, running
// main as its root thread. It returns the PID ("role#N"). The boot function
// is remembered so fault plans can restart the role.
func (c *Cluster) StartProcess(role, machine string, main func(*Context)) string {
	id := c.roleID(role)
	c.roles[id].bootFn = main
	c.roles[id].bootMac = machine
	return c.startIncarnation(id, trace.NoOp)
}

// startIncarnation boots the role's next process ("role#N") on its machine.
func (c *Cluster) startIncarnation(roleID int, causor trace.OpID) string {
	r := &c.roles[roleID]
	r.incarn++
	pid := r.name + "#" + strconv.Itoa(r.incarn)
	n := newNode(c, pid, r.name, r.bootMac)
	n.roleID = roleID
	c.nodes[pid] = n
	c.nodeList = append(c.nodeList, n)
	r.service = n
	n.startSystemThreads()
	c.spawnThread(n, "main", r.bootFn, causor, false, false)
	return pid
}

// RestartRole relaunches a crashed role as a fresh process (the recovery node
// of Section 4.3.1). Used by fault plans and by app-level supervisors.
func (c *Cluster) RestartRole(role string, causor trace.OpID) string {
	id, ok := c.roleIdx[role]
	if !ok || c.roles[id].bootFn == nil {
		panic(fmt.Sprintf("sim: restart of unknown role %q", role))
	}
	pid := c.startIncarnation(id, causor)
	c.tracer.emitSystem(OpReq{Kind: trace.KRestart, Aux: pid})
	return pid
}

// Outcome summarizes a finished run.
type Outcome struct {
	Stop  string // the rule that ended the run: StopDone, StopDeadlock, StopBudget, StopStall or StopQuiescent
	Steps int64  // simulated time at the end, timer jumps included
	Picks int64  // scheduler work: thread resumes made by the run
	// LongestStall is the most picks the run went without a non-daemon
	// thread reaching a new op site (measured only under the stall rule).
	LongestStall int64
	// LongestQuiet is the most picks the run stayed quiescent (measured only
	// while the quiescence rule is on).
	LongestQuiet int64
	// FullTaints counts the emitted ops whose Taint or Ctl set had reached
	// MaxTaint: every set that lost an op to the cap is among them, so 0
	// means the cap cut no dependence.
	FullTaints int
	Elapsed    time.Duration

	// Hung are the threads still alive at the end, daemons and the RPC
	// handlers serving them left out.
	Hung               []HangSite
	FatalLogs          []string
	UncaughtExceptions []string
	// CheckErr is the workload checker's verdict on the end state, filled
	// by core.Run only for a run that ended with none of the failures
	// above.
	CheckErr error

	// FaultFirings are the plan's scenario events that actually fired, in
	// firing order — each with its victim, step and anchor. This is the
	// per-fault record hazard-window derivation consumes.
	FaultFirings []trace.FaultFiring
}

// HangSite describes one thread that was still alive when the run ended.
type HangSite struct {
	PID    string
	Thread int
	Name   string
	Site   string // where it blocked (or last yielded)
	Reason string
}

// Completed reports whether every non-daemon thread finished (Stop is
// StopDone).
func (o *Outcome) Completed() bool { return o.Stop == StopDone }

// Failed reports whether the run ended badly (hang, fatal, uncaught
// exception, or checker failure).
func (o *Outcome) Failed() bool {
	return o.FailureKind() != "ok"
}

// FailureKind classifies the run for trigger verdicts: an uncaught exception
// identifies a failure more precisely than the fatal it logs, which beats the
// hang they often also cause; checker complaints rank last; "ok" means
// !Failed(). Campaign signatures (campaign.Symptom) rank the same symptoms
// except that a fatal log comes before an exception.
func (o *Outcome) FailureKind() string {
	switch {
	case len(o.UncaughtExceptions) > 0:
		return "exception"
	case len(o.FatalLogs) > 0:
		return "fatal"
	case o.Stop != StopDone:
		return "hang"
	case o.CheckErr != nil:
		return "check"
	}
	return "ok"
}

// Detail describes how the run failed, naming each symptom once: every hung
// thread, then the fatal logs, the uncaught exceptions and the checker's
// complaint, joined by "; ". Empty for a run that did not fail.
func (o *Outcome) Detail() string {
	var parts []string
	for _, h := range o.Hung {
		parts = append(parts, fmt.Sprintf("hang:%s/%s@%s(%s)", h.PID, h.Name, h.Site, h.Reason))
	}
	parts = append(parts, o.FatalLogs...)
	parts = append(parts, o.UncaughtExceptions...)
	if o.CheckErr != nil {
		parts = append(parts, "check:"+o.CheckErr.Error())
	}
	return strings.Join(parts, "; ")
}
