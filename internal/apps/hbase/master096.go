package hbase

import (
	"fmt"
	"strings"

	"fcatch/internal/sim"
	"fcatch/internal/storage"
)

// roleOf strips the incarnation suffix from a PID.
func roleOf(pid string) string {
	if i := strings.IndexByte(pid, '#'); i >= 0 {
		return pid[:i]
	}
	return pid
}

// master096Main is the 0.96.0 HMaster. Its startup sequence doubles as the
// master-restart recovery path of the HB1 workload: the same code runs in
// the fresh master and in the restarted one, reading whatever the previous
// incarnation left in ZooKeeper and the global FS.
func master096Main(ctx *sim.Context, p params, kv *storage.KV, gfs *storage.GlobalFS) {
	defer ctx.Scope("masterMain").End()
	self := ctx.Self()
	rit := ctx.NamedObject("rit")
	flags := ctx.NamedObject("flags")

	// ZK watch events: the unassigned znode drives the RIT map (Figure 6).
	self.HandleEvent("unassigned-changed", func(ctx *sim.Context, payload sim.Value) {
		defer ctx.Scope("ritUpdate").End()
		state, err := kv.GetData(ctx, "/hbase/unassigned/meta")
		if err != nil {
			return
		}
		if ctx.Guard(sim.Derive(state.Str() == "OPENED", state)) {
			rit.Set(ctx, "meta", sim.V(nil)) // W of Figure 6: RIT.remove(Meta)
			ctx.Cluster().SetFact("hb.metaLocation", "rs0")
			return
		}
		rit.Set(ctx, "meta", state)
	})

	self.HandleMsg("ping-ack", func(ctx *sim.Context, m sim.Message) {
		ctx.NamedCond(m.Payload.Str()).Signal(ctx, m.Payload)
	})
	self.HandleMsg("split-old-done", func(ctx *sim.Context, m sim.Message) {
		ctx.NamedCond("logSplitDone").Signal(ctx, m.Payload)
	})
	self.HandleMsg("ns-ready", func(ctx *sim.Context, m sim.Message) {
		ctx.NamedObject("flags").Set(ctx, "nsRemote", sim.V(true))
	})
	self.HandleMsg("region-ack", func(ctx *sim.Context, m sim.Message) {
		ctx.NamedObject("flags").Set(ctx, "ack-"+m.Payload.Str(), sim.V(true))
	})
	self.HandleMsg("region-opened", func(ctx *sim.Context, m sim.Message) {
		ctx.NamedObject("flags").Set(ctx, "opened-"+m.Payload.Str(), sim.V(true))
	})

	self.HandleMsg("server-load", func(ctx *sim.Context, m sim.Message) {
		ctx.NamedObject("serverLoads").Set(ctx, "load-"+roleOf(m.From), m.Payload)
	})

	// --- Startup / recovery sequence ---

	// Exp-FP: the previous active master's contact info (published late in
	// its startup) is read and pinged; pinging a dead master raises a
	// caught connection exception.
	info, infoErr := kv.GetData(ctx, "/hbase/active-master-info")
	if infoErr == nil && ctx.Guard(info) && info.Str() != ctx.PID() {
		if sendErr := ctx.Send(info.Str(), "master-ping", info); sendErr != nil {
			ctx.Try(func() {
				ctx.Throw("ConnectException", info)
			})
		}
	}
	// Whatever was learned about the previous master is shared.
	_ = ctx.Send("rs1", "previous-master-info", info)
	// Exp-FP #1: the active-master lock. The previous incarnation's
	// ephemeral znode may outlive it until the ZK session expires; the
	// NodeExists exception is caught and retried.
	for {
		ok, err := kv.CreateEphemeral(ctx, "/hbase/master", sim.V(ctx.PID()))
		if err == nil {
			break
		}
		ctx.Try(func() {
			ctx.Throw("MasterNodeExistsException", ok)
		})
		ctx.Sleep(80)
	}

	// The cluster id marker is consulted in a confined scope with no
	// failure-prone consequence, so impact estimation prunes its pair.
	func() {
		defer ctx.Scope("readClusterID").End()
		id := kv.Exists(ctx, "/hbase/clusterid")
		if !ctx.Guard(id) {
			_, _ = kv.Create(ctx, "/hbase/clusterid", sim.V("cluster-1"))
		}
	}()

	// Benign FP #1: the balancer state left by the previous master is read
	// and honoured; any value is valid.
	bal, balErr := kv.GetData(ctx, "/hbase/balancer-state")
	if balErr == nil && ctx.Guard(bal) {
		_ = ctx.Send("rs0", "balancer-mode", bal)
	}
	// ... and this master publishes its own (the conflicting write).
	if err := kv.SetData(ctx, "/hbase/balancer-state", sim.V("on:"+ctx.PID())); err != nil {
		_, _ = kv.Create(ctx, "/hbase/balancer-state", sim.V("on:"+ctx.PID()))
	}

	// Dependence-pruning fodder: assignment plans are rewritten by every
	// master before being consulted.
	for r := 0; r < p.regions; r++ {
		path := fmt.Sprintf("/hbase/plan/region-%d", r)
		for k := 0; k < p.planWrites; k++ {
			if err := kv.SetData(ctx, path, sim.V(ctx.PID())); err != nil {
				_, _ = kv.Create(ctx, path, sim.V(ctx.PID()))
			}
		}
		plan, _ := kv.GetData(ctx, path)
		_ = plan
	}

	// Impact-pruning fodder: region-state znodes written by the
	// RegionServers (on this master's orders) are re-read for logging only.
	func() {
		defer ctx.Scope("reloadRegionStates").End()
		for r := 0; r < p.regions; r++ {
			st, _ := kv.GetData(ctx, fmt.Sprintf("/hbase/region-state/region-%d", r))
			ctx.Log(st.Str())
		}
	}()

	// Watch META assignment state before initiating anything.
	kv.Watch(ctx, "/hbase/unassigned/meta", "unassigned-changed", false)

	// One RPC round-trip (its client wait is timeout-protected like every
	// HBase RPC, so it lands in the wait-timeout pruning column).
	if info, err := ctx.Call("rs0", "GetServerInfo"); err == nil {
		ctx.Log(info.Str())
	}

	// Timeout-protected coordination rounds (wait-timeout pruning fodder):
	// each wait pairs with a signal caused by a RegionServer message.
	for i, round := range []struct{ name, rs string }{
		{"rs-report-a", "rs0"}, {"rs-report-b", "rs1"},
		{"meta-verify", "rs0"}, {"balance-round-a", "rs1"},
		{"balance-round-b", "rs0"}, {"favored-nodes", "rs1"},
	} {
		_ = ctx.Send(round.rs, "master-ping", sim.V(round.name))
		if _, err := ctx.NamedCond(round.name).WaitTimeout(ctx, 400); err != nil {
			ctx.LogError(fmt.Sprintf("master: round %d (%s) timed out", i, round.name))
		}
	}

	// --- Mid-startup persistent markers. These all land *after* the usual
	// fault-injection point, so a crash-recovery pair on them is triggered
	// by crashing right after the write — and every one is handled: the
	// caught exceptions are the paper's "Exp." false positives. ---

	// Backup-master registration (scanned and pinged by the next master).
	okBackup, _ := kv.CreateEphemeral(ctx, "/hbase/backup-masters/"+ctx.PID(), sim.V(ctx.PID()))

	// The recovery-plan scratch file: a leftover raises a caught
	// FileAlreadyExists and an alternate name is used.
	okPlan, planErr := gfs.Create(ctx, "/hbase/.tmp/meta-plan", sim.V(ctx.PID()))
	if planErr != nil {
		ctx.Try(func() {
			ctx.Throw("FileAlreadyExistsException", okPlan)
		})
		_, _ = gfs.Create(ctx, "/hbase/.tmp/meta-plan."+ctx.PID(), sim.V(ctx.PID()))
	}

	// The split-log round marker: a leftover is caught and skipped.
	okMarker, markerErr := kv.Create(ctx, "/hbase/splitlog-marker", sim.V(ctx.PID()))
	if markerErr != nil {
		ctx.Try(func() {
			ctx.Throw("SplitMarkerExistsException", okMarker)
		})
	}

	// The assignment scratch lock: a leftover is caught and cleared.
	okLock, lockErr := kv.Create(ctx, "/hbase/tmp-lock", sim.V(ctx.PID()))
	if lockErr != nil {
		ctx.Try(func() {
			ctx.Throw("LockExistsException", okLock)
		})
		_ = kv.Delete(ctx, "/hbase/tmp-lock")
		_, _ = kv.Create(ctx, "/hbase/tmp-lock", sim.V(ctx.PID()))
	}

	// This master is now the active one; publish its contact info.
	if err := kv.SetData(ctx, "/hbase/active-master-info", sim.V(ctx.PID())); err != nil {
		_, _ = kv.Create(ctx, "/hbase/active-master-info", sim.V(ctx.PID()))
	}

	// Startup status report: the marker outcomes are announced to the
	// cluster (a global impact for each of the ops above).
	_ = ctx.Send("rs0", "startup-report", sim.Derive("markers", okBackup, okPlan, okMarker, okLock))

	// FP (c): waiting for old-log cleanup with no timeout of its own — the
	// split watchdog below is the rescue FCatch cannot see.
	_ = ctx.Send("rs0", "split-old", sim.V("logs"))

	// The timeout-monitor component: it force-completes assignments and log
	// splits that dawdle (HBase's TimeoutMonitor).
	ctx.GoDaemon("timeout-monitor", func(ctx *sim.Context) {
		defer ctx.Scope("timeoutMonitor").End()
		ctx.Sleep(p.rescueAfter)
		flags := ctx.NamedObject("flags")
		if !flags.Get(ctx, "ack-special").Bool() {
			flags.Set(ctx, "ack-special", sim.V(true))
		}
		ctx.NamedCond("logSplitDone").Signal(ctx, sim.V("forced"))
	})

	if _, err := ctx.NamedCond("logSplitDone").Wait(ctx); err != nil {
		ctx.LogError("master: log split wait failed")
	}

	// FP (a): namespace initialization has two writers — a local init
	// thread and the RegionServer's report. The observed run exits through
	// the remote one.
	ctx.Go("ns-init-local", func(ctx *sim.Context) {
		ctx.Sleep(900)
		ctx.NamedObject("flags").Set(ctx, "nsLocal", sim.V(true))
	})
	_ = ctx.Send("rs1", "ns-init", sim.V("go"))
	ctx.SyncLoop(sim.LoopOpts{Name: "namespaceInit", SleepTicks: 40}, func(ctx *sim.Context) sim.Value {
		l := flags.Get(ctx, "nsLocal")
		r := flags.Get(ctx, "nsRemote")
		return sim.Derive(l.Bool() || r.Bool(), l, r)
	})

	// FP (b): a region assignment acknowledged by message, rescued by the
	// timeout monitor when the RegionServer dies.
	_ = ctx.Send("rs0", "open-region", sim.V("special"))
	ctx.SyncLoop(sim.LoopOpts{Name: "waitRegionAck", SleepTicks: 40}, func(ctx *sim.Context) sim.Value {
		return flags.Get(ctx, "ack-special")
	})

	// Assign user regions (creates the region-state znodes on the RS side).
	for r := 0; r < p.regions; r++ {
		target := "rs0"
		if r%2 == 1 {
			target = "rs1"
		}
		_ = ctx.Send(target, "open-region", sim.V(fmt.Sprintf("region-%d", r)))
	}

	// --- Bug HB1 (Figure 6): assign META and poll the RIT map without any
	// timeout until the OPENED notification removes the entry. ---
	metaState, metaErr := kv.GetData(ctx, "/hbase/unassigned/meta")
	alreadyOpen := metaErr == nil && ctx.Guard(sim.Derive(metaState.Str() == "OPENED", metaState))
	if !alreadyOpen {
		// Pick a live RegionServer from the ZK registry.
		metaHost := "rs0"
		if live := kv.Children(ctx, "/hbase/rs"); len(live) > 0 {
			metaHost = live[0]
		}
		rit.Set(ctx, "meta", sim.V("PENDING_OPEN"))
		_ = ctx.Send(metaHost, "open-meta", sim.V("meta"))
		ctx.SyncLoop(sim.LoopOpts{Name: "waitMetaOpen", SleepTicks: 45}, func(ctx *sim.Context) sim.Value {
			entry := rit.Get(ctx, "meta")
			return sim.Derive(entry.IsNil(), entry)
		})
	} else {
		ctx.Cluster().SetFact("hb.metaLocation", "rs0")
	}

	// Loop-timeout pruning fodder: three distinct deadline-bounded polls
	// (each is its own static loop, as the pruned loops in the paper are).
	deadline0 := ctx.Now().Int() + 1500
	ctx.SyncLoop(sim.LoopOpts{Name: "confirm-region-0", SleepTicks: 30}, func(ctx *sim.Context) sim.Value {
		opened := flags.Get(ctx, "opened-region-0")
		now := ctx.Now()
		return sim.Derive(opened.Bool() || now.Int() > deadline0, opened, now)
	})
	deadline1 := ctx.Now().Int() + 1500
	ctx.SyncLoop(sim.LoopOpts{Name: "confirm-region-1", SleepTicks: 30}, func(ctx *sim.Context) sim.Value {
		opened := flags.Get(ctx, "opened-region-1")
		now := ctx.Now()
		return sim.Derive(opened.Bool() || now.Int() > deadline1, opened, now)
	})
	deadline2 := ctx.Now().Int() + 1500
	ctx.SyncLoop(sim.LoopOpts{Name: "confirm-region-2", SleepTicks: 30}, func(ctx *sim.Context) sim.Value {
		opened := flags.Get(ctx, "opened-region-2")
		now := ctx.Now()
		return sim.Derive(opened.Bool() || now.Int() > deadline2, opened, now)
	})

	// One balancer round over the reported server loads before declaring
	// the cluster up.
	loads := ctx.NamedObject("serverLoads")
	l0 := loads.Get(ctx, "load-rs0")
	l1 := loads.Get(ctx, "load-rs1")
	if ctx.Guard(sim.Derive(l0.Int() > l1.Int()+2, l0, l1)) {
		_ = ctx.Send("rs1", "open-region", sim.V("rebalanced"))
	}

	// Up: publish and finish. The previous incarnation's marker is reused.
	up := kv.Exists(ctx, "/hbase/cluster-up")
	if !ctx.Guard(up) {
		_, _ = kv.Create(ctx, "/hbase/cluster-up", sim.V("true"))
	}
	ctx.Cluster().SetFact("hb.clusterUp", "true")
}
