// Package toy is a deliberately small two-node commit protocol used by the
// quickstart example and the pipeline's own tests. It contains one
// crash-regular TOF bug, one crash-recovery TOF bug (a miniature of the
// MapReduce CanCommit bug of Figure 1), and one specimen of each prunable
// false-positive pattern, so every stage of FCatch has something to do.
package toy

import (
	"fmt"

	"fcatch/internal/core"
	"fcatch/internal/sim"
	"fcatch/internal/storage"
)

// Workload implements core.Workload for the toy system.
type Workload struct{ core.Profile }

// New returns the toy workload. Observation runs crash the worker, which the
// operator restarts; nothing is expected to hang. The toy's RPC client, like
// Hadoop-MR's, has no client-side timeout.
func New() *Workload {
	return &Workload{core.Profile{ID: "TOY", Target: "worker", Restart: map[string]int64{"worker": 40}, MaxSteps: 15_000}}
}

// Configure implements core.Workload.
func (w *Workload) Configure(c *sim.Cluster) {
	gfs := storage.NewGlobalFS()
	c.SetFact("toy.gfs", gfs)

	c.StartProcess("server", "m1", func(ctx *sim.Context) {
		defer ctx.Scope("serverMain").End()
		self := ctx.Self()

		self.HandleMsg("hello", func(ctx *sim.Context, m sim.Message) {
			ctx.NamedCond("worker-ready").Signal(ctx, m.Payload)
			_ = ctx.Send(m.From, "ack", sim.V("hi"))
		})

		self.HandleRPC("CanCommit", func(ctx *sim.Context, args []sim.Value) sim.Value {
			defer ctx.Scope("CanCommit").End()
			task := ctx.NamedObject("Task")
			cur := task.Get(ctx, "committed")
			if ctx.Guard(cur) {
				// Crash-recovery TOF bug (Figure 1 in miniature): content
				// left by a crashed attempt denies every recovery attempt.
				return sim.Derive(cur.Str() == args[0].Str(), cur, args[0])
			}
			task.Set(ctx, "committed", args[0])
			return sim.Derive(true, args[0])
		})

		// Crash-regular TOF bug: this untimed wait blocks forever if the
		// worker dies before (or its hello message drops before) the signal.
		ready := ctx.NamedCond("worker-ready")
		ready.Wait(ctx)
	})

	c.StartProcess("worker", "m2", func(ctx *sim.Context) {
		workerMain(ctx, gfs)
	})
}

func workerMain(ctx *sim.Context, gfs *storage.GlobalFS) {
	defer ctx.Scope("workerMain").End()
	me := sim.V(ctx.PID())

	ctx.Self().HandleMsg("ack", func(ctx *sim.Context, m sim.Message) {
		ctx.NamedCond("server-ack").Signal(ctx, m.Payload)
	})

	if err := ctx.Send("server", "hello", me); err != nil {
		ctx.LogError("hello failed")
	}

	// Prunable candidate: this wait is protected by a timeout, so its
	// signal/wait pair must fall to the wait-timeout analysis.
	ack := ctx.NamedCond("server-ack")
	if _, err := ack.WaitTimeout(ctx, 300); err != nil {
		ctx.LogError("no ack (tolerated)")
	}

	// Prunable candidate: /job/status is reset by every incarnation before
	// it is read, so the read falls to the data-dependence analysis.
	gfs.Write(ctx, "/job/status", sim.Derive("running", me))
	status, _ := gfs.Read(ctx, "/job/status")
	_ = status

	// Prunable candidate: /job/hint is created once (recovery's create
	// fails harmlessly) and its content influences nothing, so both the
	// conflicting create and the read fall to impact estimation.
	_, _ = gfs.Create(ctx, "/job/hint", me)
	hint, _ := gfs.Read(ctx, "/job/hint")
	_ = hint

	// Recovery sanity check: a finished job is not redone.
	done := gfs.Exists(ctx, "/job/done")
	if ctx.Guard(done) {
		ctx.Cluster().SetFact("toy.result", "already-done")
		return
	}

	gfs.Write(ctx, "/job/output", me)

	ok, err := ctx.Call("server", "CanCommit", me)
	if err != nil {
		ctx.LogFatal("commit rpc failed")
		return
	}
	if !ctx.Guard(ok) {
		// The unrecoverable outcome of the crash-recovery bug.
		ctx.LogFatal("commit denied: task poisoned by dead attempt", ok)
		return
	}
	gfs.Write(ctx, "/job/done", me)
	ctx.Cluster().SetFact("toy.result", "committed")
}

// Check implements core.Workload: the job must have committed (or found the
// previous incarnation's commit), with the output file present.
func (w *Workload) Check(c *sim.Cluster) error {
	res := c.FactStr("toy.result")
	if res != "committed" && res != "already-done" {
		return fmt.Errorf("toy: job did not commit (result=%q)", res)
	}
	return nil
}
