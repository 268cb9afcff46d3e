package mapreduce

import (
	"fmt"
	"sort"
	"strings"

	"fcatch/internal/sim"
	"fcatch/internal/storage"
)

// taskRole maps a task id ("1" for map 1, "r0" for reduce 0) to the process
// role that hosts its attempts.
func taskRole(id string) string {
	if strings.HasPrefix(id, "r") {
		return "reduce" + id[1:]
	}
	return "task" + id
}

// callAM calls the ApplicationMaster with retries: the AM may be mid-restart
// (MR2's recovery path), in which case calls fail fast and are retried.
func callAM(ctx *sim.Context, method string, args ...sim.Value) (sim.Value, error) {
	var last error
	for i := 0; i < 60; i++ {
		v, err := ctx.Call("am", method, args...)
		if err == nil {
			return v, nil
		}
		if _, ok := err.(*sim.RemoteError); ok {
			return sim.Value{}, err // application-level error: do not retry
		}
		last = err
		ctx.Sleep(30)
	}
	return sim.Value{}, last
}

// partition assigns a word to a reducer.
func partition(word string, numReducers int) int {
	h := 0
	for _, c := range word {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return h % numReducers
}

// encodeCounts renders a word-count map as "w=c;w=c" with sorted keys
// (determinism).
func encodeCounts(counts map[string]int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	return strings.Join(parts, ";")
}

// decodeCounts parses encodeCounts output.
func decodeCounts(s string) map[string]int {
	out := map[string]int{}
	if s == "" {
		return out
	}
	for _, part := range strings.Split(s, ";") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) == 2 {
			n := 0
			fmt.Sscanf(kv[1], "%d", &n)
			out[kv[0]] += n
		}
	}
	return out
}

// attemptMain is one task attempt — a mapper or a reducer. Both share the
// task lifecycle: announce, consult the AM, do the work, then run the
// CanCommit/StartCommit/DoneCommit protocol (whose hazard windows are bugs
// MR1 and MR4).
func attemptMain(ctx *sim.Context, p params, gfs *storage.GlobalFS, taskID string) {
	defer ctx.Scope("attemptMain").End()
	me := sim.V(ctx.PID())
	taskV := sim.V(taskID)
	local := ctx.NamedObject("local")

	ctx.Self().HandleRPC("QueryDone", func(ctx *sim.Context, args []sim.Value) sim.Value {
		done := ctx.NamedObject("local").Get(ctx, "done")
		if ctx.Guard(done) {
			return sim.Derive("done", done)
		}
		return sim.Derive("working", done)
	})

	// Announce liveness once before anything else, so the AM's watcher
	// knows which attempt now owns the task.
	_ = ctx.Send("am", "task-heartbeat", taskV)

	// Ask before touching anything: a recovered task needs no rerun — and a
	// task stuck in COMMITTING turns this attempt away (MR4).
	state, err := callAM(ctx, "GetTaskState", taskV, me)
	if err != nil {
		ctx.LogError("attempt: cannot reach AM for task state")
		return
	}
	if ctx.Guard(sim.Derive(state.Str() == "done", state)) {
		// The previous attempt finished the task; adopt its result so the
		// AM's watcher gets its answer from us.
		local.Set(ctx, "done", sim.V(true))
		return
	}
	if ctx.Guard(sim.Derive(state.Str() == "busy", state)) {
		// MR4's symptom: the recovery attempt is killed while the task can
		// never finish.
		ctx.LogError("attempt: task reported busy; attempt exiting")
		return
	}

	// Liveness + progress reporting.
	ctx.GoDaemon("heartbeat", func(ctx *sim.Context) {
		for {
			_ = ctx.Send("am", "task-heartbeat", taskV)
			ctx.Sleep(p.heartbeatEvery)
		}
	})

	// Container localization: fetching the job jar and setting up the
	// working directory dominates attempt startup in real deployments.
	ctx.Sleep(int64(180 + len(taskID)*60))

	var outputs map[string]sim.Value // final path -> temp path content
	if strings.HasPrefix(taskID, "r") {
		outputs = runReduce(ctx, p, gfs, taskID)
	} else {
		outputs = runMap(ctx, p, gfs, taskID)
	}
	if outputs == nil {
		return
	}

	// Stage the outputs under attempt-unique temp names.
	temps := map[string]string{}
	var paths []string
	for final := range outputs {
		paths = append(paths, final)
	}
	sort.Strings(paths)
	for _, final := range paths {
		tmp := fmt.Sprintf("%s/tmp-%s-%s", stagingDir, strings.ReplaceAll(final, "/", "_"), ctx.PID())
		gfs.Write(ctx, tmp, outputs[final])
		temps[final] = tmp
	}

	// The commit protocol (Figure 1). The retry loop is the published
	// behaviour: a denied attempt retries, expecting the situation to
	// resolve — which it never does once MR1's window was hit.
	for {
		granted, err := callAM(ctx, "CanCommit", taskV, me)
		if err != nil {
			ctx.LogError("attempt: CanCommit unreachable; aborting attempt")
			return
		}
		if ctx.Guard(granted) {
			break
		}
		ctx.Sleep(50)
	}
	if _, err := callAM(ctx, "StartCommit", taskV, me); err != nil {
		ctx.LogError("attempt: StartCommit failed")
		return
	}
	for _, final := range paths {
		if err := gfs.Rename(ctx, temps[final], final); err != nil {
			ctx.LogFatal("attempt: commit rename failed")
			return
		}
	}
	if _, err := callAM(ctx, "DoneCommit", taskV, me); err != nil {
		ctx.LogError("attempt: DoneCommit failed")
		return
	}
	local.Set(ctx, "done", sim.V(true))
	gfs.Write(ctx, fmt.Sprintf("%s/history-%s", histDir, taskID), sim.Derive("committed", me))
	// The process lingers (a real container JVM does too); QueryDone keeps
	// answering until the platform tears the job down.
}

// runMap executes the map side of WordCount: count the split's words and
// partition the counts across the reducers.
func runMap(ctx *sim.Context, p params, gfs *storage.GlobalFS, taskID string) map[string]sim.Value {
	split, err := gfs.Read(ctx, fmt.Sprintf("/input/task-%s", taskID))
	if err != nil {
		ctx.LogFatal("attempt: input split missing")
		return nil
	}
	historyPath := fmt.Sprintf("%s/history-%s", histDir, taskID)
	gfs.Write(ctx, historyPath, sim.Derive("started", sim.V(ctx.PID())))

	perReducer := make([]map[string]int, p.numReducers)
	for r := range perReducer {
		perReducer[r] = map[string]int{}
	}
	for _, word := range strings.Fields(split.Str()) {
		perReducer[partition(word, p.numReducers)][word]++
	}
	for u := 0; u < p.progressUpdates; u++ {
		_ = ctx.Send("am", "progress-update", sim.V(taskID))
		ctx.Sleep(70) // a chunk of map computation per progress report
	}

	gfs.Write(ctx, historyPath, sim.Derive("mapped", sim.V(ctx.PID())))
	// Dependence-pruning fodder: the attempt validates its own history
	// write; every incarnation rewrites the file before reading it.
	hist, _ := gfs.Read(ctx, historyPath)
	_ = hist

	outputs := map[string]sim.Value{}
	for r := 0; r < p.numReducers; r++ {
		outputs[fmt.Sprintf("%s/mapout-%s-%d", stagingDir, taskID, r)] =
			sim.Derive(encodeCounts(perReducer[r]), split)
	}
	return outputs
}

// runReduce executes the reduce side: wait for every map, fetch this
// reducer's partition from each map output, and merge.
func runReduce(ctx *sim.Context, p params, gfs *storage.GlobalFS, taskID string) map[string]sim.Value {
	// Shuffle barrier: poll the AM until every map task committed.
	for {
		done, err := callAM(ctx, "MapsDone")
		if err != nil {
			ctx.LogError("reduce: cannot query map progress")
			return nil
		}
		if ctx.Guard(done) {
			break
		}
		ctx.Sleep(60)
	}

	rIdx := strings.TrimPrefix(taskID, "r")
	merged := map[string]int{}
	var inputs []sim.Value
	for m := 0; m < p.numTasks; m++ {
		part, err := gfs.Read(ctx, fmt.Sprintf("%s/mapout-%d-%s", stagingDir, m, rIdx))
		if err != nil {
			ctx.LogFatal("reduce: map output missing")
			return nil
		}
		inputs = append(inputs, part)
		for w, c := range decodeCounts(part.Str()) {
			merged[w] += c
		}
		ctx.Sleep(20) // fetch latency per map output
	}
	return map[string]sim.Value{
		fmt.Sprintf("/output/reduce-%s", rIdx): sim.Derive(encodeCounts(merged), inputs...),
	}
}
