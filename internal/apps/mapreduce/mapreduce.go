// Package mapreduce is a miniature Hadoop-MapReduce: a ResourceManager, an
// ApplicationMaster and per-task attempt processes running a WordCount job
// over global-FS input splits, with heartbeats, a commit protocol, a staging
// directory, and AM/attempt recovery.
//
// It faithfully plants the paper's MapReduce TOF bugs:
//
//   - MR1 (benchmark, Figure 1): CanCommit records the committing attempt in
//     T.commit on the AM; an attempt crash between CanCommit and DoneCommit
//     poisons the task — every recovery attempt is denied and retries
//     forever (crash-recovery, Write vs Read, heap).
//   - MR2 (benchmark, two ways): the AM deletes the staging directory at
//     job end before unregistering; an AM crash in that window makes the
//     restarted AM fail opening job.xml / listing the splits (crash-
//     recovery, Delete vs Open, global files).
//   - MR3: the RPC client wait has no timeout (version-accurate); losing a
//     reply hangs any RPC call site forever (crash-regular, Signal vs Wait).
//   - MR4: an attempt crash between StartCommit and DoneCommit leaves
//     task state COMMITTING; the recovery attempt is told the task is busy
//     and gives up — the job hangs (crash-recovery, Write vs Read, heap).
//   - MR5 (version 2.1.1): the AM creates a COMMIT_STARTED marker before
//     committing job output; an AM crash before COMMIT_SUCCESS makes the
//     restarted AM refuse recovery (crash-recovery, Create vs Exists).
//   - The Section 8.3 FCatch false negative: the AM's finish-watcher copies
//     an RPC return value into a heap flag from a plain (non-handler)
//     thread, so selective tracing misses the write; an attempt crash
//     between DoneCommit and the watcher's next poll hangs the job, and only
//     random fault injection can expose it.
package mapreduce

import (
	"fmt"
	"strconv"
	"strings"

	"fcatch/internal/core"
	"fcatch/internal/sim"
	"fcatch/internal/storage"
)

// params sizes the job and its timing windows.
type params struct {
	version     string
	numTasks    int
	numReducers int
	// splits hold the WordCount input text per task.
	splits []string
	// heartbeatEvery is the attempt->AM heartbeat period.
	heartbeatEvery int64
	// pollEvery is the AM finish-watcher poll period (the FN-bug window).
	pollEvery int64
	// monitorEvery / monitorTimeout drive the AM's slow attempt monitor.
	monitorEvery   int64
	monitorTimeout int64
	// progressUpdates is how many progress messages each attempt sends
	// (impact-pruning fodder scale).
	progressUpdates int
	// ids lists every task of the job (taskIDs), built once per workload.
	ids []string
}

// Workload is one MapReduce benchmark row of Table 1. No role is restarted
// from outside: the ResourceManager itself relaunches dead AMs and attempts.
type Workload struct {
	core.Profile
	p params
}

// NewMR1 is the "MR 0.23.1 Startup + WordCount" workload; observation runs
// crash a task attempt.
func NewMR1() *Workload {
	return newWorkload("MR1", "task1", params{
		version:     "0.23.1",
		numTasks:    3,
		numReducers: 2,
		splits: []string{
			"alpha beta alpha gamma",
			"beta beta gamma",
			"alpha gamma gamma gamma",
		},
		heartbeatEvery:  60,
		pollEvery:       40,
		monitorEvery:    80,
		monitorTimeout:  240,
		progressUpdates: 4,
	})
}

// NewMR2 is the "MR 2.1.1 Startup + WordCount" workload; observation runs
// crash the ApplicationMaster.
func NewMR2() *Workload {
	return newWorkload("MR2", "am", params{
		version:     "2.1.1",
		numTasks:    3,
		numReducers: 2,
		splits: []string{
			"delta epsilon delta",
			"epsilon epsilon zeta delta",
			"zeta zeta",
		},
		heartbeatEvery:  45,
		pollEvery:       40,
		monitorEvery:    80,
		monitorTimeout:  240,
		progressUpdates: 10,
	})
}

// newWorkload builds the workload sized by p and lists its tasks. The MR RPC
// client has no timeout (version-accurate: bug MR3).
func newWorkload(id, target string, p params) *Workload {
	for i := 0; i < p.numTasks; i++ {
		p.ids = append(p.ids, strconv.Itoa(i))
	}
	for r := 0; r < p.numReducers; r++ {
		p.ids = append(p.ids, "r"+strconv.Itoa(r))
	}
	return &Workload{
		Profile: core.Profile{ID: id, Target: target, RPCFailFast: true, MaxSteps: 30_000},
		p:       p,
	}
}

const (
	stagingDir = "/staging/job1"
	histDir    = "/jobhist/job1"
)

// Configure implements core.Workload.
func (w *Workload) Configure(c *sim.Cluster) {
	p := w.p
	gfs := storage.NewGlobalFS()
	c.SetFact("mr.gfs", gfs)

	for i, text := range p.splits {
		gfs.Seed(fmt.Sprintf("/input/task-%d", i), sim.V(text))
	}
	gfs.Seed(stagingDir+"/job.xml", sim.V("job-conf:wordcount"))
	for i := range p.splits {
		gfs.Seed(fmt.Sprintf("%s/split-%d", stagingDir, i), sim.V(fmt.Sprintf("split:%d", i)))
	}

	rmPID := c.StartProcess("rm", "m-rm", func(ctx *sim.Context) { rmMain(ctx, p) })
	c.StartProcess("am", "m-am", func(ctx *sim.Context) { amMain(ctx, p, gfs) })
	for _, id := range p.taskIDs() {
		id := id
		role := taskRole(id)
		c.StartProcess(role, "m-"+role, func(ctx *sim.Context) { attemptMain(ctx, p, gfs, id) })
		c.SubscribeConvict(role, rmPID)
	}
	c.SubscribeConvict("am", rmPID)
}

// taskIDs lists every task of the job: map tasks "0".."n-1", then reduce
// tasks "r0".."rk-1". Callers only read it.
func (p params) taskIDs() []string { return p.ids }

// expectedCounts computes the ground-truth WordCount result.
func (p params) expectedCounts() map[string]int {
	out := map[string]int{}
	for _, s := range p.splits {
		for _, w := range strings.Fields(s) {
			out[w]++
		}
	}
	return out
}

// Check implements core.Workload: the job must be done with the right word
// count and a successful commit marker.
func (w *Workload) Check(c *sim.Cluster) error {
	if c.FactStr("mr.done") != "true" {
		return fmt.Errorf("mr: job not marked done")
	}
	expected := w.p.expectedCounts()
	want := 0
	for _, n := range expected {
		want += n
	}
	if got, _ := c.Fact("mr.count").(int); got != want {
		return fmt.Errorf("mr: word count %d, want %d", got, want)
	}
	for word, n := range expected {
		if got, _ := c.Fact("mr.word." + word).(int); got != n {
			return fmt.Errorf("mr: count[%s] = %d, want %d", word, got, n)
		}
	}
	gfs := c.Fact("mr.gfs").(*storage.GlobalFS)
	if _, ok := gfs.Peek("/output/final"); !ok {
		return fmt.Errorf("mr: final output missing")
	}
	return nil
}
