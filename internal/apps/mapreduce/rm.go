package mapreduce

import (
	"strings"

	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// rmMain is the ResourceManager: it acknowledges AM registration, relaunches
// crashed AMs and task attempts (the platform's fast failure detector), and
// waits — with a timeout, as a real RM would — for job completion.
//
// The RM keeps a task-status cache fed by a plain poller thread. The cached
// writes happen outside any handler, so FCatch's selective tracing does not
// see them — which is why the hang this cache can cause (skipping a relaunch
// while the AM's finish-watcher still waits for the dead attempt's answer)
// is the paper's Section 8.3 false negative, exposable only by random fault
// injection.
func rmMain(ctx *sim.Context, p params) {
	defer ctx.Scope("rmMain").End()
	self := ctx.Self()
	cache := ctx.NamedObject("statusCache")

	self.HandleRPC("RegisterAM", func(ctx *sim.Context, args []sim.Value) sim.Value {
		defer ctx.Scope("RegisterAM").End()
		rmState := ctx.NamedObject("rmState")
		rmState.Set(ctx, "amPID", args[0])
		if p.version == "2.1.1" {
			// Newer RMs confirm registration out-of-band as well, after the
			// registration bookkeeping settles.
			am := args[0].Str()
			ctx.Go("ack-sender", func(ctx *sim.Context) {
				ctx.Sleep(60)
				_ = ctx.Send(am, "rm-ack", sim.V("registered"))
			})
		}
		return sim.V("ok")
	})

	self.HandleMsg("job-complete", func(ctx *sim.Context, m sim.Message) {
		ctx.Cluster().SetFact("mr.done", "true")
		ctx.NamedCond("job-finished").Signal(ctx, m.Payload)
	})

	// The platform's failure detector: relaunch whatever died — except
	// attempts whose task the status cache already believes finished.
	self.HandleMsg("convict", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("convict").End()
		dead := m.Payload.Str()
		role := dead
		if i := strings.IndexByte(dead, '#'); i >= 0 {
			role = dead[:i]
		}
		if ctx.Cluster().FactStr("mr.done") == "true" {
			return
		}
		if ctx.Cluster().Lookup(role) != "" {
			return // a live incarnation exists; nothing to do
		}
		if role != "am" {
			cached := cache.Get(ctx, role)
			if ctx.Guard(sim.Derive(cached.Str() == "done", cached)) {
				return // finished task: no container wasted on a relaunch
			}
		}
		ctx.Cluster().RestartRole(role, trace.NoOp)
	})

	// Status poller: refreshes the cache from the AM. The cache writes run
	// on this plain thread — outside every handler.
	ctx.GoDaemon("status-poller", func(ctx *sim.Context) {
		defer ctx.Scope("statusPoller").End()
		for {
			for _, id := range p.taskIDs() {
				s, err := ctx.Call("am", "GetTaskState", sim.V(id))
				if err == nil {
					cache.Set(ctx, taskRole(id), s)
				}
			}
			ctx.Sleep(p.pollEvery)
			if ctx.Cluster().FactStr("mr.done") == "true" {
				return
			}
		}
	})

	// Prunable crash-regular candidate (wait-timeout analysis): the RM does
	// not block forever on a single job.
	if _, err := ctx.NamedCond("job-finished").WaitTimeout(ctx, 20_000); err != nil {
		ctx.LogError("rm: job did not finish before the RM gave up waiting")
	}
}
