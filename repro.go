package fcatch

import (
	"fmt"
	"strings"

	"fcatch/internal/inject"
)

// bugDetails carries the reproduction narrative for each catalogued bug —
// the analog of the paper's companion repository of per-bug readmes and
// reproduction scripts.
var bugDetails = map[string]string{
	"CA1": `The anti-entropy repair coordinator asks each neighbour to snapshot its
sstables and then waits — without a timeout and without a retry — for the
snapshot acknowledgements. The ack is one of Cassandra's droppable message
verbs. If it is dropped (application- or kernel-level), the repair session
waits forever. A neighbour *crash* is tolerated: the failure detector's
convict callback aborts the session, which is why this bug only triggers
with message drops.`,
	"CA2": `Identical shape to CA1 one phase later: the coordinator waits untimed for
the neighbours' merkle-tree responses during validation. A dropped
tree-response strands the repair at "Mtree compare" forever.`,
	"CA3": `After validation, the coordinator streams differing ranges and polls a
pending-streams counter decremented by stream-finished messages. The
convict callback that rescues CA1/CA2 forgot this phase: both a neighbour
crash and a dropped stream-finished message hang the repair at "Mtree
repair".`,
	"HB1": `Figure 6 of the paper. A RegionServer opening META registers OPENING in
ZooKeeper (the master's watch inserts META into its region-in-transition
map), creates two global-FS files and a znode, then registers OPENED
(whose watch event removes the RIT entry). The master polls the RIT map
with no timeout. If the RegionServer crashes inside that window, the entry
is never removed and the whole cluster hangs. Message drops cannot trigger
it: the OPENED update is a ZooKeeper operation, not a droppable packet.`,
	"HB2": `0.90.1 log splitting takes a plain (non-ephemeral) lock znode around the
write-ahead-log roll. A RegionServer crash between the lock's create and
delete strands the lock; the master's split worker then fails to acquire
it and skips the split entirely, silently losing every unflushed edit.`,
	"HB3": `The 0.90.1 master sends OpenRegion for ROOT and waits untimed for the
opened notification. A RegionServer crash (or a dropped notification)
before the reply leaves the master waiting forever; the shutdown handler
never reassigns ROOT because it believes an open is still in progress.`,
	"HB4": `The same ROOT-open window as HB3, caught through the master's catalog
poller: an unbounded loop on the root-location field that only the opened
notification writes.`,
	"HB5": `The replication worker advances its queue znode as it ships edits — but
deletes the znode before shipping the final edit of the log. A crash in
between makes the master's queue adoption skip the log ("no znode, nothing
pending") and the tail edit is never replicated.`,
	"HB6": `One level up from HB5: the whole queue-directory marker is deleted before
the very last buffered edit ships. A crash in that window makes adoption
conclude the dead server had no replication state at all.`,
	"MR1": `Figure 1 of the paper. CanCommit records the committing attempt's ID in
T.commit on the Application Master and thereafter only grants that
attempt. If the attempt crashes between CanCommit and DoneCommit, the
stale T.commit denies every recovery attempt; each one retries forever and
the job never finishes.`,
	"MR2": `At job end the AM deletes the staging directory (job.xml first, then the
split files) before unregistering from the ResourceManager. If the AM
crashes in that window the RM relaunches it — into a staging directory
that no longer exists. The restarted AM fails reading job.xml (way 1).`,
	"MR2b": `The second way into the MR2 window: the restarted AM gets past job.xml
(if only the tree deletion raced) but fails re-reading the per-task split
files the cleanup already unlinked.`,
	"MR3": `Hadoop-MR's RPC client parks each call on an untimed wait that only the
reply's arrival signals. Losing a reply message — or crashing the callee
at the wrong moment under the pre-fail-fast IPC layer — hangs the caller
forever, at *any* RPC call site.`,
	"MR4": `StartCommit flips a task to COMMITTING; DoneCommit flips it to done. The
AM's attempt monitor resets RUNNING tasks of dead attempts but forgot the
COMMITTING case, so an attempt crash inside the commit leaves the task
permanently "busy": the recovery attempt is turned away and the job
hangs.`,
	"MR5": `The 2.1.1 AM creates a COMMIT_STARTED marker before committing job
output and a COMMIT_SUCCESS marker after. A crash in between makes the
restarted AM find STARTED-without-SUCCESS and refuse recovery ("previous
AM died during job commit").`,
	"ZK": `ZOOKEEPER-1653's shape: during election the server persists
acceptedEpoch and then currentEpoch as two local files. A crash between
the writes leaves acceptedEpoch ahead; on restart the server refuses to
load its database and never comes back.`,
}

// Details returns the reproduction narrative for a catalogued bug.
func Details(id string) string { return bugDetails[id] }

// Reproduction is the end-to-end story of one bug: the detection report
// that predicted it, the hazard windows of the observation it came from, the
// exact scenario string that replays the trigger, and the trigger outcome
// that confirmed it.
type Reproduction struct {
	Spec     *BugSpec
	Workload string
	Report   *Report
	// Windows are the observation's hazard windows; Report.WindowID indexes
	// into them for crash-recovery reports.
	Windows []Window
	// Scenario is the FormatScenario rendering of the triggering fault
	// scenario rebuilt from the report's window anchors — paste it straight
	// into `fcatch trigger -scenario`.
	Scenario string
	Outcome  *TriggerOutcome
}

// Reproduce runs the full pipeline for one catalogued bug: detect on its
// workload, locate the matching report, and trigger it.
func Reproduce(bugID string, opts Options) (*Reproduction, error) {
	spec := Spec(bugID)
	if spec == nil {
		return nil, fmt.Errorf("fcatch: unknown bug %q", bugID)
	}
	wl := spec.Workloads[0]
	w, err := ByName(wl)
	if err != nil {
		return nil, err
	}
	res, err := Detect(w, opts)
	if err != nil {
		return nil, err
	}
	var report *Report
	for _, r := range res.Reports {
		if spec.matches(r) {
			report = r
			break
		}
	}
	if report == nil {
		return nil, fmt.Errorf("fcatch: bug %s was not predicted by detection on %s", bugID, wl)
	}
	out := triggerer(w, res).Trigger(report)
	rep := &Reproduction{
		Spec: spec, Workload: wl, Report: report,
		Windows: res.Windows,
		Outcome: out,
	}
	if sc := inject.TriggerScenario(report, res.Windows); len(sc) > 0 {
		rep.Scenario = FormatScenario(sc)
	}
	return rep, nil
}

// Render formats the reproduction as a readme-style narrative.
func (r *Reproduction) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n\n", r.Spec.ID, r.Spec.Symptom)
	if d := Details(r.Spec.ID); d != "" {
		b.WriteString(d)
		b.WriteString("\n\n")
	}
	fmt.Fprintf(&b, "workload:   %s\n", r.Workload)
	fmt.Fprintf(&b, "prediction: %s\n", r.Report)
	if r.Report.Type == CrashRegularBug {
		wp := r.Report.WPrime
		fmt.Fprintf(&b, "trigger:    remove W' (occurrence %d of %s on %s) via crash or drop\n",
			wp.Occurrence, wp.Site, wp.PID)
	} else {
		when := WhenAfter
		if r.Report.WInFaultyRun {
			when = WhenBefore
		}
		fmt.Fprintf(&b, "trigger:    crash %s right %s W (occurrence %d of %s)\n",
			r.Report.CrashTargetRole, when, r.Report.W.Occurrence, r.Report.W.Site)
		if wid := r.Report.WindowID; wid > 0 && wid < len(r.Windows) {
			fmt.Fprintf(&b, "window:     %s\n", &r.Windows[wid])
		}
	}
	if r.Scenario != "" {
		fmt.Fprintf(&b, "scenario:   %q\n", r.Scenario)
	}
	fmt.Fprintf(&b, "verdict:    %s", r.Outcome.Class)
	if r.Outcome.FailureKind != "" {
		fmt.Fprintf(&b, " (%s)", r.Outcome.FailureKind)
	}
	b.WriteString("\n")
	if r.Outcome.Detail != "" {
		fmt.Fprintf(&b, "failure:    %s\n", r.Outcome.Detail)
	}
	if r.Report.Type == CrashRegularBug {
		fmt.Fprintf(&b, "fault types: %s=%v %s=%v %s=%v\n",
			ActionNodeCrash, r.Outcome.ByAction[ActionNodeCrash],
			ActionKernelDrop, r.Outcome.ByAction[ActionKernelDrop],
			ActionAppDrop, r.Outcome.ByAction[ActionAppDrop])
	}
	return b.String()
}
