package mapreduce

import (
	"fmt"

	"fcatch/internal/sim"
	"fcatch/internal/storage"
)

// amMain is the ApplicationMaster: it recovers job state from the staging
// directory, serves the task commit protocol, watches attempt liveness, and
// commits the job output.
func amMain(ctx *sim.Context, p params, gfs *storage.GlobalFS) {
	defer ctx.Scope("amMain").End()
	self := ctx.Self()

	// --- Commit protocol (Figure 1 of the paper, verbatim in miniature) ---
	self.HandleRPC("CanCommit", func(ctx *sim.Context, args []sim.Value) sim.Value {
		defer ctx.Scope("CanCommit").End()
		task := ctx.NamedObject("task" + args[0].Str())
		commit := task.Get(ctx, "commit")
		if ctx.Guard(commit) {
			// MR1: T.commit survives the committing attempt's crash and
			// denies every recovery attempt.
			return sim.Derive(commit.Str() == args[1].Str(), commit, args[1])
		}
		task.Set(ctx, "commit", args[1])
		return sim.Derive(true, args[1])
	})

	self.HandleRPC("StartCommit", func(ctx *sim.Context, args []sim.Value) sim.Value {
		defer ctx.Scope("StartCommit").End()
		task := ctx.NamedObject("task" + args[0].Str())
		// MR4: COMMITTING sticks if the attempt dies before DoneCommit.
		task.Set(ctx, "state", sim.Derive("COMMITTING", args[1]))
		return sim.V("ok")
	})

	self.HandleRPC("DoneCommit", func(ctx *sim.Context, args []sim.Value) sim.Value {
		defer ctx.Scope("DoneCommit").End()
		task := ctx.NamedObject("task" + args[0].Str())
		task.Set(ctx, "state", sim.V("done"))
		return sim.V("ok")
	})

	self.HandleRPC("GetTaskState", func(ctx *sim.Context, args []sim.Value) sim.Value {
		defer ctx.Scope("GetTaskState").End()
		task := ctx.NamedObject("task" + args[0].Str())
		state := task.Get(ctx, "state")
		// Impact-pruning fodder: progress and history notes are consulted
		// for logging only; they influence nothing.
		prog := task.Get(ctx, "progress")
		ctx.Log(prog.Str())
		if ctx.Guard(sim.Derive(state.Str() == "done", state)) {
			return sim.Derive("done", state)
		}
		if ctx.Guard(sim.Derive(state.Str() == "COMMITTING", state)) {
			// MR4: the AM believes the (dead) attempt is still committing
			// and turns the recovery attempt away.
			return sim.Derive("busy", state)
		}
		return sim.Derive("run", state)
	})

	self.HandleMsg("task-heartbeat", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("heartbeat").End()
		task := ctx.NamedObject("task" + m.Payload.Str())
		// Dependence-pruning fodder: lastBeat is rewritten by the live
		// attempt before any consumer reads it.
		task.Set(ctx, "lastBeat", ctx.Now())
		task.Set(ctx, "attempt", sim.V(m.From))
	})

	self.HandleMsg("progress-update", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("progress").End()
		task := ctx.NamedObject("task" + m.Payload.Str())
		task.Set(ctx, "progress", sim.Derive("progress@", m.Payload))
	})

	self.HandleRPC("MapsDone", func(ctx *sim.Context, args []sim.Value) sim.Value {
		defer ctx.Scope("mapsDone").End()
		all := true
		var deps []sim.Value
		for i := 0; i < p.numTasks; i++ {
			st := ctx.NamedObject(fmt.Sprintf("task%d", i)).Get(ctx, "state")
			deps = append(deps, st)
			all = all && st.Str() == "done"
		}
		return sim.Derive(all, deps...)
	})

	self.HandleMsg("rm-ack", func(ctx *sim.Context, m sim.Message) {
		ctx.NamedCond("rm-registered").Signal(ctx, m.Payload)
	})

	// --- AM (re)start: recover job state from the staging directory. ---
	if _, err := ctx.Call("rm", "RegisterAM", sim.V(ctx.PID())); err != nil {
		ctx.LogFatal("am: cannot register with RM")
		return
	}
	if p.version == "2.1.1" {
		// Prunable crash-regular candidate (wait-timeout analysis).
		if _, err := ctx.NamedCond("rm-registered").WaitTimeout(ctx, 500); err != nil {
			ctx.LogError("am: rm ack missed; proceeding")
		}
	}

	// MR5 (2.1.1): a commit that was in flight when the previous AM died is
	// unrecoverable — but a *finished* commit only needs its bookkeeping
	// completed.
	if p.version == "2.1.1" {
		started := gfs.Exists(ctx, histDir+"/COMMIT_STARTED")
		success := gfs.Exists(ctx, histDir+"/COMMIT_SUCCESS")
		if ctx.Guard(sim.Derive(started.Bool() && success.Bool(), started, success)) {
			// The previous AM committed the job and died during cleanup.
			_ = gfs.Delete(ctx, stagingDir+"/job.xml")
			gfs.DeleteTree(ctx, stagingDir)
			_ = ctx.Send("rm", "job-complete", success)
			return
		}
		if ctx.Guard(sim.Derive(started.Bool() && !success.Bool(), started, success)) {
			ctx.LogFatal("am: previous AM died during job commit; cannot recover", started)
			return
		}
	}

	// MR2: these reads die if the previous AM already cleaned the staging
	// directory (two distinct ways to hit the same window: the job config
	// and the task split files).
	conf, err := gfs.Read(ctx, stagingDir+"/job.xml")
	if err != nil {
		ctx.LogFatal("am: staging job.xml missing; cannot recover job")
		return
	}
	ctx.Guard(conf)
	for i := 0; i < p.numTasks; i++ {
		split, err := gfs.Read(ctx, fmt.Sprintf("%s/split-%d", stagingDir, i))
		if err != nil {
			ctx.LogFatal("am: task split files missing; cannot recover job")
			return
		}
		ctx.Guard(split) // the split content drives task scheduling
	}

	// Task-state recovery: completed tasks are re-learned from the job
	// history files, so a restarted AM does not re-run (or forget) them.
	for _, id := range p.taskIDs() {
		hist, err := gfs.Read(ctx, fmt.Sprintf("%s/history-%s", histDir, id))
		if err != nil {
			continue
		}
		if ctx.Guard(sim.Derive(hist.Str() == "committed", hist)) {
			ctx.NamedObject("task"+id).Set(ctx, "state", sim.Derive("done", hist))
			ctx.NamedObject("finish").Set(ctx, "task"+id, sim.Derive(true, hist))
		}
	}

	// Impact-pruning fodder: the AM re-reads the per-task status board left
	// in the staging directory purely for its logs.
	for i := 0; i < p.numTasks; i++ {
		note, _ := gfs.Read(ctx, fmt.Sprintf("%s/board-%d", stagingDir, i))
		ctx.Log(note.Str())
	}
	// Dependence-pruning fodder: per-task counters are reset before any
	// consultation.
	for i := 0; i < p.numTasks; i++ {
		path := fmt.Sprintf("%s/counters-%d", histDir, i)
		gfs.Write(ctx, path, sim.V("reset"))
		cnt, _ := gfs.Read(ctx, path)
		_ = cnt
	}

	// --- Slow attempt monitor: clears RUNNING state of silent attempts
	// (it forgets the COMMITTING case — that omission is MR4). ---
	ctx.GoDaemon("attempt-monitor", func(ctx *sim.Context) {
		defer ctx.Scope("attemptMonitor").End()
		for {
			ctx.Sleep(p.monitorEvery)
			now := ctx.Now()
			for _, id := range p.taskIDs() {
				task := ctx.NamedObject("task" + id)
				beat := task.Get(ctx, "lastBeat")
				state := task.Get(ctx, "state")
				stale := beat.Bool() && int64(now.Int()-beat.Int()) > p.monitorTimeout
				if ctx.Guard(sim.Derive(stale && state.Str() == "RUNNING", beat, state)) {
					task.Set(ctx, "state", sim.V("READY"))
				}
			}
		}
	})

	// --- Board writer: persists a status line per heartbeat round
	// (dependence/impact fodder scaled by run length). ---
	ctx.GoDaemon("board-writer", func(ctx *sim.Context) {
		defer ctx.Scope("boardWriter").End()
		for round := 0; ; round++ {
			ctx.Sleep(p.heartbeatEvery)
			for i := 0; i < p.numTasks; i++ {
				task := ctx.NamedObject(fmt.Sprintf("task%d", i))
				prog := task.Get(ctx, "progress")
				gfs.Write(ctx, fmt.Sprintf("%s/board-%d", stagingDir, i), prog)
				if round%3 == 0 {
					gfs.Write(ctx, fmt.Sprintf("%s/counters-%d", histDir, i), prog)
				}
			}
			if ctx.Cluster().FactStr("mr.done") == "true" {
				return
			}
		}
	})

	// --- Finish watcher: the Section 8.3 false negative. It polls the
	// attempt it knows about and copies the answer into a heap flag from
	// this plain thread — a write selective tracing does not see. ---
	finish := ctx.NamedObject("finish")
	ctx.GoDaemon("finish-watcher", func(ctx *sim.Context) {
		defer ctx.Scope("finishWatcher").End()
		for {
			for _, id := range p.taskIDs() {
				field := "task" + id
				if finish.Get(ctx, field).Bool() {
					continue
				}
				task := ctx.NamedObject(field)
				att := task.Get(ctx, "attempt")
				if !att.Bool() {
					continue
				}
				done, err := ctx.Call(att.Str(), "QueryDone")
				if err == nil && done.Str() == "done" {
					finish.Set(ctx, field, sim.V(true))
				}
			}
			ctx.Sleep(p.pollEvery)
		}
	})

	// --- Wait for every task, then commit the job. ---
	ctx.SyncLoop(sim.LoopOpts{Name: "awaitTasks", SleepTicks: 35}, func(ctx *sim.Context) sim.Value {
		all := true
		var deps []sim.Value
		for _, id := range p.taskIDs() {
			f := finish.Get(ctx, "task"+id)
			deps = append(deps, f)
			all = all && f.Bool()
		}
		return sim.Derive(all, deps...)
	})

	// MR2's hazard window: the intermediate/staging data is cleaned as soon
	// as every task finished, before the job commit and before the RM
	// learns anything — an AM crash from here until COMMIT_STARTED leaves a
	// relaunched AM staring at a deleted staging directory.
	_ = gfs.Delete(ctx, stagingDir+"/job.xml")
	gfs.DeleteTree(ctx, stagingDir)

	if p.version == "2.1.1" {
		if _, err := gfs.Create(ctx, histDir+"/COMMIT_STARTED", sim.V(ctx.PID())); err != nil {
			ctx.LogFatal("am: commit marker already present")
			return
		}
	}
	total := 0
	var taints []sim.Value
	for r := 0; r < p.numReducers; r++ {
		v, err := gfs.Read(ctx, fmt.Sprintf("/output/reduce-%d", r))
		if err != nil {
			ctx.LogFatal("am: reducer output missing")
			return
		}
		taints = append(taints, v)
		for word, n := range decodeCounts(v.Str()) {
			prev, _ := ctx.Cluster().Fact("mr.word." + word).(int)
			ctx.Cluster().SetFact("mr.word."+word, prev+n)
			total += n
		}
	}
	gfs.Write(ctx, "/output/final", sim.Derive(total, taints...))
	ctx.Cluster().SetFact("mr.count", total)
	if p.version == "2.1.1" {
		_, _ = gfs.Create(ctx, histDir+"/COMMIT_SUCCESS", sim.V(ctx.PID()))
	}
	_ = ctx.Send("rm", "job-complete", sim.V(total))
}
