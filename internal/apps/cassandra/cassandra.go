// Package cassandra is a miniature Cassandra ring: three nodes with gossip,
// an accrual failure detector, and an anti-entropy repair protocol
// (snapshot → merkle-tree validation → streaming repair) coordinated by one
// node.
//
// Planted bugs (Table 2):
//
//   - CA1: the repair coordinator's untimed wait for the neighbours'
//     snapshot acknowledgements. The ack is a droppable message: an
//     application- or kernel-level drop hangs the repair forever, while a
//     node crash is tolerated — the failure detector's convict callback
//     aborts the session (which is why CA1 triggers with message drops but
//     not crashes, Section 8.4).
//   - CA2: the same pattern one phase later, waiting for merkle-tree
//     responses.
//   - CA3: the streaming-repair phase polls a pending-streams counter; the
//     convict callback forgets to abort sessions in this phase, so here
//     *both* crashes and drops hang the repair.
//
// The gossip digest computation runs in plain worker threads with many heap
// accesses: under FCatch's selective tracing they are untraced and free, but
// the Section 8.2 exhaustive-tracing ablation instruments every one of them,
// inflating gossip rounds until the failure detector declares live
// neighbours dead — the paper's "CA benchmarks simply cannot finish".
package cassandra

import (
	"fmt"

	"fcatch/internal/core"
	"fcatch/internal/sim"
	"fcatch/internal/storage"
)

type params struct {
	gossipEvery     int64 // light heartbeat-gossip period
	fullDigestEvery int64 // heavy full-digest recomputation period
	digestWork      int   // heap accesses per full digest (§8.2 lever)
	fdThreshold     int64 // failure-detector silence threshold
	repairDelay     int64 // coordinator waits this long after startup
	rangesPerNode   int   // merkle ranges (stream volume)
	// dataKeys / divergentKeys size the replicated column store and the
	// inconsistency the anti-entropy session must repair.
	dataKeys      int
	divergentKeys int
}

// Workload is the "CA 1.1.12 Startup + AntiEntropy" benchmark row.
type Workload struct {
	core.Profile
	p params
}

// New returns the CA workload. The operator restarts a dead ring node.
func New() *Workload {
	return &Workload{
		Profile: core.Profile{
			ID: "CA1&2", Target: "cass1", Restart: map[string]int64{"cass1": 220},
			RPCClientTimeout: 500, RPCFailFast: true, MaxSteps: 50_000,
		},
		p: params{
			gossipEvery:     42,
			fullDigestEvery: 200,
			digestWork:      25,
			fdThreshold:     3600,
			repairDelay:     2300,
			rangesPerNode:   2,
			dataKeys:        8,
			divergentKeys:   3,
		},
	}
}

// Configure implements core.Workload.
func (w *Workload) Configure(c *sim.Cluster) {
	p := w.p
	lfs := storage.NewLocalFS()
	c.SetFact("ca.lfs", lfs)
	for _, n := range []string{"cass0", "cass1", "cass2"} {
		lfs.Seed("m-"+n, "/var/cassandra/saved_tokens", sim.V("tokens:"+n))
		lfs.Seed("m-"+n, "/var/cassandra/peers", sim.V("cass0,cass1,cass2"))
		// The replicated column store. cass1 missed the last few writes
		// (it was briefly down) — the divergence anti-entropy must repair.
		for k := 0; k < p.dataKeys; k++ {
			val := fmt.Sprintf("v%d", k)
			if n == "cass1" && k >= p.dataKeys-p.divergentKeys {
				val = "stale"
			}
			lfs.Seed("m-"+n, fmt.Sprintf("/var/cassandra/data/k%d", k), sim.V(val))
		}
	}

	peers := []string{"cass0", "cass1", "cass2"}
	var pids []string
	for i, n := range peers {
		node := n
		coordinator := i == 0
		pids = append(pids, c.StartProcess(node, "m-"+node, func(ctx *sim.Context) {
			cassMain(ctx, p, lfs, peers, coordinator)
		}))
	}
	// The coordinator's failure-detection listener (convict) watches every
	// other ring member.
	c.SubscribeConvict("cass1", pids[0])
	c.SubscribeConvict("cass2", pids[0])
}

// Check implements core.Workload: the run is correct when the repair session
// either completed or was aborted by real node death, and no live node was
// falsely convicted.
func (w *Workload) Check(c *sim.Cluster) error {
	switch c.FactStr("ca.repair") {
	case "done":
		// A completed repair must have converged every replica. A node's
		// effective value is its memtable entry (published as a fact when a
		// stream applied) over its seeded sstable content.
		lfs := c.Fact("ca.lfs").(*storage.LocalFS)
		effective := func(node, key string) any {
			if v := c.Fact("ca.store." + node + "." + key); v != nil {
				return v
			}
			v, _ := lfs.PeekLocal("m-"+node, "/var/cassandra/data/"+key)
			return v
		}
		for k := 0; k < w.p.dataKeys; k++ {
			key := fmt.Sprintf("k%d", k)
			want := effective("cass0", key)
			for _, n := range []string{"cass1", "cass2"} {
				if c.FactStr("ca.inSession."+n) != "true" {
					continue // a dead node was excluded; it owes nothing
				}
				if got := effective(n, key); got != want {
					return fmt.Errorf("cassandra: replica %s diverged on %s after repair (%v vs %v)", n, key, got, want)
				}
			}
		}
	case "aborted":
		// Aborting on real node death is correct; convergence is not owed.
	default:
		return fmt.Errorf("cassandra: repair never concluded (state=%q)", c.FactStr("ca.repair"))
	}
	if fd := c.FactStr("ca.false-positive-conviction"); fd != "" {
		return fmt.Errorf("cassandra: failure detector convicted a live node: %s", fd)
	}
	return nil
}
