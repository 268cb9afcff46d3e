// Package zookeeper is a miniature ZooKeeper server ensemble: a leader and a
// follower running an epoch-stamped startup, a client session writing
// znodes, transaction logging and periodic snapshots to the local disk, and
// a restart path that recovers the database from those files.
//
// The benchmark bug (the paper's ZK row, ZOOKEEPER-1653-style): during
// election the leader persists acceptedEpoch and currentEpoch as two local
// files, in that order. A crash between the two writes leaves
// acceptedEpoch > currentEpoch, and the restarted server refuses to load its
// database — "Restart fails" (crash-recovery, Write vs Read, local file).
//
// The snapshot-recovery path reproduces Figure 8's sanity-check pattern
// verbatim: the restarted server walks snapshots newest-first, validates
// each (R1) before deserializing it (R2); the validation's control
// dependence makes FCatch prune the R2 pair, while the R1 pair survives as a
// benign false positive (a torn snapshot merely falls back to an older one).
package zookeeper

import (
	"fmt"

	"fcatch/internal/core"
	"fcatch/internal/sim"
	"fcatch/internal/storage"
)

type params struct {
	edits     int
	snapEvery int // snapshot every N edits
}

// Workload is the "ZK 3.4.5 Startup" benchmark row.
type Workload struct {
	core.Profile
	p params
}

// New returns the ZK workload. The operator restarts a dead server on the
// same machine (its disk survives).
func New() *Workload {
	return &Workload{
		Profile: core.Profile{
			ID: "ZK", Target: "zkleader", Restart: map[string]int64{"zkleader": 160},
			RPCClientTimeout: 500, RPCFailFast: true, MaxSteps: 25_000,
		},
		p: params{edits: 10, snapEvery: 3},
	}
}

// Configure implements core.Workload.
func (w *Workload) Configure(c *sim.Cluster) {
	p := w.p
	lfs := storage.NewLocalFS()
	c.SetFact("zk.lfs", lfs)
	lfs.Seed("m-zk0", "/zk/data/myid", sim.V("1"))
	lfs.Seed("m-zk1", "/zk/data/myid", sim.V("2"))

	c.StartProcess("zkleader", "m-zk0", func(ctx *sim.Context) { serverMain(ctx, p, lfs, true) })
	c.StartProcess("zkfollower", "m-zk1", func(ctx *sim.Context) { serverMain(ctx, p, lfs, false) })
	c.StartProcess("zkclient", "m-zkc", func(ctx *sim.Context) { clientMain(ctx, p) })
}

// Check implements core.Workload: the service must come up (and back up,
// after a tolerated fault) with every acknowledged edit in its database.
func (w *Workload) Check(c *sim.Cluster) error {
	if c.FactStr("zk.serving") != "true" {
		return fmt.Errorf("zookeeper: service never came up")
	}
	acked, _ := c.Fact("zk.acked").(int)
	stored, _ := c.Fact("zk.dbsize").(int)
	if stored < acked {
		return fmt.Errorf("zookeeper: database lost edits: stored=%d acked=%d", stored, acked)
	}
	return nil
}
