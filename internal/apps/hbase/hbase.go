// Package hbase is a miniature HBase: an HMaster and RegionServers
// coordinating through the ZooKeeper-like KV store, with META/ROOT
// assignment, a region-in-transition map fed by znode watch events, write-
// ahead-log splitting and a replication queue.
//
// Two versions are modelled, matching the paper's two benchmark rows:
//
// Version 0.96.0 ("HB1" workload, Startup + HMasterRestart):
//   - HB1 (benchmark, Figure 6): HMaster polls its region-in-transition map
//     until the META open completes; a RegionServer crash between its
//     OPENING and OPENED registrations hangs the master forever
//     (crash-regular, Write vs Loop, heap). Only a node crash triggers it —
//     the RegionServer resends the OPENED update on socket errors.
//   - three planted crash-regular false positives: a namespace-init loop
//     whose exit has a second, local writer; and an assignment loop plus a
//     log-split wait that a timeout-monitor component rescues — a timeout
//     mechanism FCatch's analysis cannot see (Section 8.1.1).
//   - four crash-recovery "Exp." false positives on the master-restart path
//     (lock/marker creations and reads whose failure is a caught, handled
//     exception) and benign reads of cluster metadata.
//
// Version 0.90.1 ("HB2" workload, Startup):
//   - HB3/HB4: two ways the master awaits the ROOT region open (an untimed
//     wait and a polling loop); a RegionServer crash before the opened
//     notification hangs the whole system (crash-regular).
//   - the expected-behaviour pair: the master legitimately waits forever
//     for *some* RegionServer to register when every one is dead.
//   - HB2 (benchmark): log-split workers take a plain (non-ephemeral) lock
//     znode; a crash between create and delete leaves the lock behind and
//     the master's splitter gives up — data loss (Create vs Create).
//   - HB5/HB6: the replication worker deletes its queue znode / queue
//     directory before shipping the tail edits; a crash in between makes
//     the master's queue adoption skip the log or the whole queue — silent
//     data loss (Delete vs Read).
package hbase

import (
	"fmt"

	"fcatch/internal/core"
	"fcatch/internal/sim"
	"fcatch/internal/storage"
)

// params sizes the cluster and the planted-analysis fodder.
type params struct {
	version string
	// regions is the user-region count (scales the dependence/impact
	// pruning volumes of Table 5).
	regions int
	// planWrites is how many times the first master rewrites each region's
	// assignment plan.
	planWrites int
	// stateWrites is how many times region-state znodes are refreshed.
	stateWrites int
	// sessionTimeout is the KV session-expiry delay for ephemeral znodes.
	sessionTimeout int64
	// rescueAfter is the timeout-monitor rescue delay (the unrecognized
	// timeout mechanism).
	rescueAfter int64
	// edits is the number of client edits the HB2 workload writes.
	edits int
}

// Workload is one HBase benchmark row of Table 1. HBase's RPC client has
// timeouts.
type Workload struct {
	core.Profile
	p params
}

// NewHB1 is the "HB 0.96.0 Startup + HMasterRestart" workload: the operator
// restarts a crashed master.
func NewHB1() *Workload {
	return &Workload{
		Profile: core.Profile{
			ID: "HB1", Target: "hmaster", Restart: map[string]int64{"hmaster": 150},
			RPCClientTimeout: 600, RPCFailFast: true, MaxSteps: 40_000,
		},
		p: params{
			version:        "0.96.0",
			regions:        23,
			planWrites:     4,
			stateWrites:    2,
			sessionTimeout: 300,
			rescueAfter:    2600,
		},
	}
}

// NewHB2 is the "HB 0.90.1 Startup" workload. Dead RegionServers stay dead
// (the master's ZK watcher recovers their state), and with every one dead
// during startup, waiting for one to come alive is intended behaviour.
func NewHB2() *Workload {
	return &Workload{
		Profile: core.Profile{
			ID: "HB2", Target: "rs0",
			Expected:         []string{"wait:rs-any-registered", "loop:waitServerCount"},
			RPCClientTimeout: 600, RPCFailFast: true, MaxSteps: 40_000,
		},
		p: params{
			version:        "0.90.1",
			regions:        6,
			planWrites:     2,
			stateWrites:    2,
			sessionTimeout: 250,
			rescueAfter:    2600,
			edits:          6,
		},
	}
}

// Configure implements core.Workload.
func (w *Workload) Configure(c *sim.Cluster) {
	p := w.p
	kv := storage.NewKV(c)
	kv.SetSessionExpiryDelay(p.sessionTimeout)
	gfs := storage.NewGlobalFS()
	c.SetFact("hb.kv", kv)
	c.SetFact("hb.gfs", gfs)

	if p.version == "0.96.0" {
		c.StartProcess("hmaster", "m-master", func(ctx *sim.Context) { master096Main(ctx, p, kv, gfs) })
		c.StartProcess("rs0", "m-rs0", func(ctx *sim.Context) { rs096Main(ctx, p, kv, gfs) })
		c.StartProcess("rs1", "m-rs1", func(ctx *sim.Context) { rs096Main(ctx, p, kv, gfs) })
		return
	}
	// The replication queue skeleton for the (deterministic) first
	// RegionServer incarnation.
	kv.Seed("/hbase/replication/rs0#1", sim.V("queue"))
	kv.Seed("/hbase/replication/rs0#1/log1", sim.V(""))
	kv.Seed("/hbase/replication/rs0#1/log2", sim.V(""))
	c.StartProcess("hmaster", "m-master", func(ctx *sim.Context) { master090Main(ctx, p, kv, gfs) })
	c.StartProcess("rs0", "m-rs0", func(ctx *sim.Context) { rs090Main(ctx, p, kv, gfs) })
	c.StartProcess("client", "m-client", func(ctx *sim.Context) { client090Main(ctx, p) })
	c.StartProcess("peer", "m-peer", func(ctx *sim.Context) {
		// The peer cluster's replication sink: every shipped edit lands in
		// a message handler here (a global impact sink for the detectors).
		ctx.Self().HandleMsg("replicate", func(ctx *sim.Context, m sim.Message) {})
		ctx.Self().HandleMsg("replayed", func(ctx *sim.Context, m sim.Message) {})
		ctx.Self().HandleMsg("split-skipped", func(ctx *sim.Context, m sim.Message) {})
	})
}

// Check implements core.Workload.
func (w *Workload) Check(c *sim.Cluster) error {
	if w.p.version == "0.96.0" {
		if c.FactStr("hb.metaLocation") == "" {
			return fmt.Errorf("hbase: META never assigned")
		}
		if c.FactStr("hb.clusterUp") != "true" {
			return fmt.Errorf("hbase: cluster never came up")
		}
		return nil
	}
	// 0.90.1: the root region must be assigned, and no edit may be lost —
	// neither from the recovered table (log split) nor from replication.
	if c.FactStr("hb.rootLocation") == "" {
		return fmt.Errorf("hbase: ROOT never assigned")
	}
	for i := 0; i < w.p.edits; i++ {
		key := fmt.Sprintf("row%d", i)
		if c.FactStr("hb.table."+key) == "" {
			return fmt.Errorf("hbase: data loss: %s missing from table", key)
		}
		if c.FactStr("hb.replicated."+key) == "" {
			return fmt.Errorf("hbase: data loss: %s never replicated", key)
		}
	}
	return nil
}
