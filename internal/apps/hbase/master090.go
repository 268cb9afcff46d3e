package hbase

import (
	"fmt"
	"strings"

	"fcatch/internal/sim"
	"fcatch/internal/storage"
)

// master090Main is the 0.90.1 HMaster: it waits for RegionServer
// registration, assigns the ROOT region, routes client puts, and — through
// its ZK watcher — recovers a dead RegionServer's write-ahead log and
// replication queue.
func master090Main(ctx *sim.Context, p params, kv *storage.KV, gfs *storage.GlobalFS) {
	defer ctx.Scope("masterMain").End()
	self := ctx.Self()
	state := ctx.NamedObject("masterState")

	// RegionServer liveness via ZK: creations feed registration; deletions
	// (session expiry after a crash) trigger server recovery. The deletion
	// path is HBase's ServerShutdownHandler — a developer-named recovery
	// interface (Section 4.3.1).
	ctx.Cluster().MarkRecoveryHandler("event:rs-changed-deleted")

	self.HandleEvent("rs-changed", func(ctx *sim.Context, payload sim.Value) {
		change := payload.Str()
		switch {
		case strings.HasPrefix(change, "created:"):
			defer ctx.Scope("rsRegistered").End()
			cnt := state.Get(ctx, "serverCount")
			state.Set(ctx, "serverCount", sim.Derive(cnt.Int()+1, cnt))
			state.Set(ctx, "liveRS", sim.V(strings.TrimPrefix(change, "created:/hbase/rs/")))
			ctx.NamedCond("rs-any-registered").Signal(ctx, payload)
		case strings.HasPrefix(change, "deleted:"):
			dead := strings.TrimPrefix(change, "deleted:/hbase/rs/")
			// Re-dispatch so the recovery work carries its own label.
			ctx.Emit("rs-changed-deleted", sim.Derive(dead, payload))
		}
	})

	self.HandleEvent("rs-changed-deleted", func(ctx *sim.Context, payload sim.Value) {
		defer ctx.Scope("serverShutdownHandler").End()
		dead := payload.Str()
		cnt := state.Get(ctx, "serverCount")
		state.Set(ctx, "serverCount", sim.Derive(cnt.Int()-1, cnt))
		state.Set(ctx, "liveRS", sim.V(nil))
		state.Set(ctx, "owner", sim.V("self"))
		// HB3/HB4's root cause: a ROOT open believed to be in progress is
		// never reassigned.
		inProgress := state.Get(ctx, "rootAssignInProgress")
		rootLoc := state.Get(ctx, "rootLoc")
		if !ctx.Guard(inProgress) && ctx.Guard(sim.Derive(rootLoc.Str() == dead, rootLoc)) {
			state.Set(ctx, "rootLoc", sim.V("hmaster-hosted"))
			ctx.Cluster().SetFact("hb.rootLocation", "hmaster-hosted")
		}
		// Recover the dead server's state in a worker of its own.
		ctx.Go("serverRecovery", func(ctx *sim.Context) {
			defer ctx.Scope("serverRecovery").End()
			splitDeadLogs(ctx, p, kv, gfs, dead)
			adoptReplicationQueue(ctx, p, kv, dead)
		})
	})

	self.HandleMsg("root-opened", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("rootOpened").End()
		state.Set(ctx, "rootAssignInProgress", sim.V(false))
		// HB4's W: the root location write the catalog poller waits on.
		state.Set(ctx, "rootLoc", m.Payload)
		ctx.Cluster().SetFact("hb.rootLocation", m.Payload.Str())
		// HB3's W: the signal the master's untimed wait depends on.
		ctx.NamedCond("root-assigned").Signal(ctx, m.Payload)
	})

	self.HandleMsg("flush-done", func(ctx *sim.Context, m sim.Message) {
		ctx.NamedCond("flush-done").Signal(ctx, m.Payload)
	})

	// Client put routing with failover to master-hosting when the region
	// server is gone.
	self.HandleRPC("Put", func(ctx *sim.Context, args []sim.Value) sim.Value {
		defer ctx.Scope("routePut").End()
		key := args[0]
		for {
			owner := state.Get(ctx, "owner")
			if ctx.Guard(sim.Derive(owner.Str() == "self", owner)) {
				// Host the edit on the master: log it and remember it.
				logKey(ctx, gfs, "/hbase/hlog/hmaster", key)
				ctx.Cluster().SetFact("hb.table."+key.Str(), "hosted@master")
				ctx.Cluster().SetFact("hb.replicated."+key.Str(), "master")
				_ = ctx.Send("peer", "replicate", key)
				return sim.Derive("ok", key)
			}
			if _, err := ctx.Call(owner.Str(), "PutLocal", key); err == nil {
				return sim.Derive("ok", key)
			}
			// The owner is unreachable; wait for recovery to repoint it.
			ctx.Sleep(60)
		}
	})

	// --- Startup ---
	kv.Watch(ctx, "/hbase/rs", "rs-changed", true)
	state.Set(ctx, "owner", sim.V("rs0"))

	// The two expected-behaviour candidates: waiting for *some* RS is
	// intended to block while no RS exists (Section 8.1.1's HB2 Exp. pair).
	if _, err := ctx.NamedCond("rs-any-registered").Wait(ctx); err != nil {
		ctx.LogError("master: registration wait failed")
	}
	ctx.SyncLoop(sim.LoopOpts{Name: "waitServerCount", SleepTicks: 30}, func(ctx *sim.Context) sim.Value {
		cnt := state.Get(ctx, "serverCount")
		return sim.Derive(cnt.Int() > 0, cnt)
	})

	// --- Bugs HB3/HB4: assign ROOT and await the opened notification with
	// an untimed wait and an untimed poll. ---
	rs := state.Get(ctx, "liveRS")
	state.Set(ctx, "rootAssignInProgress", sim.V(true))
	state.Set(ctx, "owner", rs)
	_ = ctx.Send(rs.Str(), "open-root", sim.V("root"))
	if _, err := ctx.NamedCond("root-assigned").Wait(ctx); err != nil {
		ctx.LogError("master: root wait failed")
	}
	ctx.SyncLoop(sim.LoopOpts{Name: "waitRootOpen", SleepTicks: 40}, func(ctx *sim.Context) sim.Value {
		loc := state.Get(ctx, "rootLoc")
		return sim.Derive(!loc.IsNil(), loc)
	})

	// The client finishes the job synchronously through this RPC.
	self.HandleRPC("FinishJob", func(ctx *sim.Context, args []sim.Value) sim.Value {
		defer ctx.Scope("finishJob").End()
		owner := state.Get(ctx, "owner")
		if ctx.Guard(sim.Derive(owner.Str() != "self", owner)) {
			_ = ctx.Send(owner.Str(), "flush", sim.V("now"))
			// Wait-timeout pruning fodder: the flush acknowledgement wait
			// is properly bounded.
			if _, err := ctx.NamedCond("flush-done").WaitTimeout(ctx, 8_000); err != nil {
				ctx.LogError("master: flush ack timed out")
			}
		}
		ctx.Cluster().SetFact("hb.clusterUp", "true")
		return sim.Derive("finished", owner)
	})
}

// splitDeadLogs replays a dead RegionServer's write-ahead log so its
// unflushed edits survive. HB2: the split lock znode is plain (not
// ephemeral); one left behind by the dead server aborts the split.
func splitDeadLogs(ctx *sim.Context, p params, kv *storage.KV, gfs *storage.GlobalFS, dead string) {
	defer ctx.Scope("splitDeadLogs").End()

	// Dependence-pruning fodder: the split progress marker is rewritten
	// before any consultation.
	progPath := "/hbase/split-progress/" + dead
	if err := kv.SetData(ctx, progPath, sim.V("splitting")); err != nil {
		_, _ = kv.Create(ctx, progPath, sim.V("splitting"))
	}
	prog, _ := kv.GetData(ctx, progPath)
	_ = prog

	// Impact-pruning fodder: the dead server's metric znodes are read for
	// the recovery log only.
	func() {
		defer ctx.Scope("readDeadMetrics").End()
		for i := 0; i < p.regions; i++ {
			metric, _ := kv.GetData(ctx, fmt.Sprintf("/hbase/rs-info/%s/metric-%d", dead, i))
			ctx.Log(metric.Str())
		}
	}()

	lock, err := kv.Create(ctx, "/hbase/splitlog/"+dead+"-lock", sim.V(ctx.PID()))
	if err != nil {
		// HB2: the lock was left by the dead server's log roll; give up.
		ctx.Guard(lock)
		ctx.LogError("master: split lock busy; skipping log split", lock)
		_ = ctx.Send("peer", "split-result", lock)
		return
	}
	for _, seg := range []string{"/hbase/hlog/" + dead, "/hbase/hlog/" + dead + "-seg2"} {
		content, rerr := gfs.Read(ctx, seg)
		if rerr != nil {
			continue
		}
		for _, key := range splitKeys(content.Str()) {
			ctx.Cluster().SetFact("hb.table."+key, "replayed")
		}
	}
	_ = kv.Delete(ctx, "/hbase/splitlog/"+dead+"-lock")
	// The split outcome is reported either way; the lock acquisition's
	// result has global impact.
	_ = ctx.Send("peer", "split-result", lock)
}

// adoptReplicationQueue ships whatever the dead server's replication queue
// still holds. HB5/HB6: the queue trusts znodes the dead server deleted a
// moment too early.
func adoptReplicationQueue(ctx *sim.Context, p params, kv *storage.KV, dead string) {
	defer ctx.Scope("adoptReplicationQueue").End()
	summary := sim.V("adopted:" + dead)
	marker, err := kv.GetData(ctx, "/hbase/replication/"+dead)
	if err != nil || !ctx.Guard(marker) {
		// HB6: the queue directory marker is gone; nothing to adopt.
		ctx.LogError("master: no replication queue for " + dead)
		_ = ctx.Send("peer", "queue-adopted", sim.Derive(summary.Data, marker))
		return
	}
	summary = sim.Derive(summary.Data, marker)
	for _, log := range []string{"log1", "log2"} {
		pending, rerr := kv.GetData(ctx, "/hbase/replication/"+dead+"/"+log)
		summary = sim.Derive(summary.Data, summary, pending)
		if rerr != nil {
			// HB5: the log's queue znode is gone; its tail edits are lost.
			continue
		}
		if !ctx.Guard(pending) {
			continue
		}
		for _, key := range splitKeys(pending.Str()) {
			ctx.Cluster().SetFact("hb.replicated."+key, "adopted")
			_ = ctx.Send("peer", "replicate", pending)
		}
	}
	// The adoption summary is reported to the peer cluster; the queue reads
	// have global impact through it.
	_ = ctx.Send("peer", "queue-adopted", summary)
}

func splitKeys(csv string) []string {
	if csv == "" {
		return nil
	}
	return strings.Split(csv, ",")
}

// logKey appends a key to a write-ahead log file.
func logKey(ctx *sim.Context, gfs *storage.GlobalFS, path string, key sim.Value) {
	gfs.Append(ctx, path, key)
}
