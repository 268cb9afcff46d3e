package zookeeper

import (
	"fmt"
	"strings"

	"fcatch/internal/sim"
	"fcatch/internal/storage"
)

const dataDir = "/zk/data"

// serverMain runs one ZooKeeper server. The startup sequence is also the
// restart-recovery path: epochs, snapshots and the transaction log are all
// read back from the machine-local disk, which survives the crash.
func serverMain(ctx *sim.Context, p params, lfs *storage.LocalFS, leader bool) {
	defer ctx.Scope("serverMain").End()
	self := ctx.Self()
	state := ctx.NamedObject("serverState")
	var pendingQuorum *sim.Cond

	myid, _ := lfs.Read(ctx, dataDir+"/myid")
	ctx.Guard(myid)

	self.HandleMsg("follower-hello", func(ctx *sim.Context, m sim.Message) {
		state.Set(ctx, "followerConnected", sim.V(true))
	})

	self.HandleMsg("proposal", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("applyProposal").End()
		state.Set(ctx, "lastProposal", m.Payload)
		_ = ctx.Send(m.From, "prop-ack", m.Payload)
	})

	self.HandleMsg("prop-ack", func(ctx *sim.Context, m sim.Message) {
		if pendingQuorum != nil {
			pendingQuorum.Signal(ctx, m.Payload)
		}
	})

	self.HandleRPC("ProposeEpoch", func(ctx *sim.Context, args []sim.Value) sim.Value {
		return sim.Derive("epoch-ok", args[0])
	})

	// Followers synchronize from the leader's in-memory database view.
	self.HandleRPC("SyncState", func(ctx *sim.Context, args []sim.Value) sim.Value {
		defer ctx.Scope("syncState").End()
		applied := state.Get(ctx, "applied")
		return sim.Derive(applied.Int(), applied, args[0])
	})

	// --- Epoch recovery: the paper's ZK benchmark bug. acceptedEpoch is
	// persisted before currentEpoch; a crash in between leaves the database
	// unloadable on restart. ---
	if leader {
		accepted, aErr := lfs.Read(ctx, dataDir+"/acceptedEpoch")
		current, cErr := lfs.Read(ctx, dataDir+"/currentEpoch")
		stale := aErr == nil && (cErr != nil || accepted.Int() > current.Int())
		if ctx.Guard(sim.Derive(stale, accepted, current)) {
			ctx.LogFatal("zk: acceptedEpoch is ahead of currentEpoch; unable to load database", accepted, current)
			return
		}
		newEpoch := current.Int() + 1
		lfs.Write(ctx, dataDir+"/acceptedEpoch", sim.Derive(newEpoch, accepted, current))
		if _, err := ctx.Call("zkfollower", "ProposeEpoch", sim.V(newEpoch)); err != nil {
			ctx.LogError("zk: epoch proposal unanswered")
		}
		// The second half of the hazard window ends here.
		lfs.Write(ctx, dataDir+"/currentEpoch", sim.Derive(newEpoch, accepted, current))

		// A baseline snapshot marks the first election — written in the same
		// two-step (tearable) fashion as every snapshot. Later incarnations
		// keep whatever baseline already exists.
		func() {
			defer ctx.Scope("baselineSnapshot").End()
			if ctx.Guard(lfs.Exists(ctx, dataDir+"/snap-000")) {
				return
			}
			for _, content := range []string{"partial", fmt.Sprintf("db:e%d|OK", newEpoch)} {
				lfs.Write(ctx, dataDir+"/snap-000", sim.Derive(content, accepted))
				ctx.Sleep(9)
			}
		}()
	}

	// --- Snapshot recovery: Figure 8 verbatim. Walk snapshots newest
	// first; validate (R1) before deserializing (R2). The control
	// dependence of R2 on R1 is the sanity check FCatch's dependence
	// analysis recognizes and prunes. ---
	var dt sim.Value
	snaps := lfs.List(ctx, dataDir)
	for i := len(snaps) - 1; i >= 0; i-- {
		f := snaps[i]
		if !strings.Contains(f, "/snap-") {
			continue
		}
		v, err := lfs.Read(ctx, f) // R1: length/checksum validation
		if err != nil {
			continue
		}
		if ctx.Guard(sim.Derive(strings.HasSuffix(v.Str(), "|OK"), v)) {
			data, _ := lfs.Read(ctx, f) // R2: restore from the snapshot
			dt = data
			break
		}
		ctx.LogError("zk: skipping torn snapshot " + f)
	}

	// Replay the transaction log on top of the snapshot (the reads are
	// informational for the detectors: their content never reaches a
	// failure-prone sink, so impact estimation prunes their pairs).
	txns, _ := lfs.Read(ctx, dataDir+"/txnlog")
	applied := 0
	if txns.Str() != "" {
		applied = len(strings.Split(txns.Str(), ","))
	}
	zxid, _ := lfs.Read(ctx, dataDir+"/zxid-meta")
	ctx.Log(zxid.Str())

	// Dependence-pruning fodder: the recovery marker and the serving-state
	// caches are rewritten before every consultation.
	lfs.Write(ctx, dataDir+"/recovery-marker", sim.Derive("recovered", myid))
	marker, _ := lfs.Read(ctx, dataDir+"/recovery-marker")
	_ = marker
	for _, cache := range []string{"/session-cache", "/proposal-cursor", "/commit-cursor"} {
		lfs.Write(ctx, dataDir+cache, sim.Derive("reset", myid))
		v, _ := lfs.Read(ctx, dataDir+cache)
		_ = v
	}
	// Impact-pruning fodder: latency statistics and the epoch history are
	// consulted for logs only.
	stats, _ := lfs.Read(ctx, dataDir+"/latency-stats")
	ctx.Log(stats.Str())
	hist, _ := lfs.Read(ctx, dataDir+"/epoch-history")
	ctx.Log(hist.Str())

	ctx.StartService("zk-database", dt)
	state.Set(ctx, "applied", sim.V(applied))
	ctx.Cluster().SetFact("zk.dbsize", applied)
	ctx.Cluster().SetFact("zk.serving", "true")

	if !leader {
		_ = ctx.Send("zkleader", "follower-hello", myid)
		// Keep the database view synchronized with the leader — across its
		// restarts — until the workload ends.
		ctx.GoDaemon("state-syncer", func(ctx *sim.Context) {
			defer ctx.Scope("stateSyncer").End()
			for {
				if v, err := ctx.Call("zkleader", "SyncState", myid); err == nil {
					state.Set(ctx, "syncedSize", v)
					ctx.Cluster().SetFact("zk.followerSynced", v.Int())
				} else {
					// The leader is mid-restart; announce again when it
					// returns so it learns this follower exists.
					_ = ctx.Send("zkleader", "follower-hello", myid)
				}
				ctx.Sleep(140)
				if ctx.Cluster().FactStr("zk.clientDone") == "true" {
					return
				}
			}
		})
		return
	}

	// Two deadline-bounded startup polls (loop-timeout pruning fodder).
	deadlineA := ctx.Now().Int() + 1200
	ctx.SyncLoop(sim.LoopOpts{Name: "awaitFollower", SleepTicks: 30}, func(ctx *sim.Context) sim.Value {
		f := state.Get(ctx, "followerConnected")
		now := ctx.Now()
		return sim.Derive(f.Bool() || now.Int() > deadlineA, f, now)
	})
	deadlineB := ctx.Now().Int() + 1600
	ctx.SyncLoop(sim.LoopOpts{Name: "awaitEnsembleSync", SleepTicks: 30}, func(ctx *sim.Context) sim.Value {
		f := state.Get(ctx, "followerConnected")
		now := ctx.Now()
		return sim.Derive(f.Bool() || now.Int() > deadlineB, f, now)
	})

	// --- Serve client writes until the client is done. ---
	self.HandleRPC("Create", func(ctx *sim.Context, args []sim.Value) sim.Value {
		defer ctx.Scope("createZnode").End()
		key := args[0]
		lfs.Append(ctx, dataDir+"/txnlog", key)
		lfs.Write(ctx, dataDir+"/zxid-meta", sim.Derive("zxid", key))
		lfs.Write(ctx, dataDir+"/session-cache", sim.Derive("s", key))
		lfs.Write(ctx, dataDir+"/proposal-cursor", sim.Derive("p", key))
		lfs.Write(ctx, dataDir+"/commit-cursor", sim.Derive("c", key))
		lfs.Write(ctx, dataDir+"/latency-stats", sim.Derive("l", key))
		lfs.Append(ctx, dataDir+"/epoch-history", key)
		n := state.Get(ctx, "applied")
		total := n.Int() + 1
		state.Set(ctx, "applied", sim.Derive(total, n, key))
		ctx.Cluster().SetFact("zk.dbsize", total)

		// Quorum: propose to the follower and wait — with a timeout, as
		// the real quorum packets have (wait-timeout pruning fodder).
		pendingQuorum = ctx.NewCond("quorum-ack")
		_ = ctx.Send("zkfollower", "proposal", key)
		if _, err := pendingQuorum.WaitTimeout(ctx, 400); err != nil {
			ctx.LogError("zk: quorum ack timed out")
		}

		// Snapshot every few edits — written in two steps; a crash in
		// between leaves a torn snapshot for Figure 8's validator to catch.
		if total%p.snapEvery == 0 {
			snapPath := fmt.Sprintf("%s/snap-%03d", dataDir, total)
			for _, content := range []string{"partial", fmt.Sprintf("db:%d|OK", total)} {
				lfs.Write(ctx, snapPath, sim.Derive(content, key))
				ctx.Sleep(9)
			}
		}
		return sim.Derive("ok", key)
	})

	ctx.SyncLoop(sim.LoopOpts{Name: "serveUntilClientDone", SleepTicks: 60}, func(ctx *sim.Context) sim.Value {
		return sim.V(ctx.Cluster().FactStr("zk.clientDone") == "true")
	})
}

// clientMain drives the ZK workload: znode creates with retry across the
// leader's restarts.
func clientMain(ctx *sim.Context, p params) {
	defer ctx.Scope("zkClient").End()
	ctx.Sleep(180)
	acked := 0
	for i := 0; i < p.edits; i++ {
		key := sim.V(fmt.Sprintf("/app/node-%d", i))
		for {
			if _, err := ctx.Call("zkleader", "Create", key); err == nil {
				break
			}
			ctx.Sleep(45)
		}
		acked++
		ctx.Cluster().SetFact("zk.acked", acked)
		ctx.Sleep(25)
	}
	ctx.Cluster().SetFact("zk.clientDone", "true")
}
