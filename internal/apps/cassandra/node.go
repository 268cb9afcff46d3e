package cassandra

import (
	"fmt"
	"strings"

	"fcatch/internal/sim"
	"fcatch/internal/storage"
)

// decodeTree parses a "k0=v;k1=v" tree body into a map.
func decodeTree(s string) map[string]string {
	out := map[string]string{}
	for _, kv := range strings.Split(s, ";") {
		pair := strings.SplitN(kv, "=", 2)
		if len(pair) == 2 {
			out[pair[0]] = pair[1]
		}
	}
	return out
}

func role(pid string) string {
	if i := strings.IndexByte(pid, '#'); i >= 0 {
		return pid[:i]
	}
	return pid
}

// cassMain is one ring node: gossip, failure detection, repair participation
// — and, on node 0, the anti-entropy repair coordinator.
func cassMain(ctx *sim.Context, p params, lfs *storage.LocalFS, peers []string, coordinator bool) {
	defer ctx.Scope("cassMain").End()
	self := ctx.Self()
	me := ctx.PID()
	myRole := ctx.Role()
	state := ctx.NamedObject("endpointState")
	session := ctx.NamedObject("repairSession")

	// --- Boot: recover node identity from the local disk (the recovery
	// reads of a restarted node; their content is always valid → benign
	// crash-recovery candidates). ---
	tokens, _ := lfs.Read(ctx, "/var/cassandra/saved_tokens")
	peersFile, _ := lfs.Read(ctx, "/var/cassandra/peers")
	ctx.Guard(peersFile)
	state.Set(ctx, "tokens", tokens)
	lfs.Write(ctx, "/var/cassandra/saved_tokens", sim.Derive("tokens:"+me, tokens))
	lfs.Write(ctx, "/var/cassandra/peers", sim.V(strings.Join(peers, ",")))

	// --- Gossip receive path: record whatever the sender advertises. ---
	self.HandleMsg("gossip-digest", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("applyGossip").End()
		from := role(m.From)
		state.Set(ctx, "lastSeen-"+from, ctx.Now())
		// The full endpoint state is only re-advertised every few rounds.
		if m.Payload.Int()%2 != 0 {
			return
		}
		state.Set(ctx, "hb-"+from, m.Payload)
		state.Set(ctx, "load-"+from, m.Payload)
		state.Set(ctx, "schema-"+from, m.Payload)
	})

	self.HandleMsg("full-digest", func(ctx *sim.Context, m sim.Message) {
		state.Set(ctx, "lastFullDigest-"+role(m.From), ctx.Now())
	})

	// A (re)joining node announces itself; the generation is rewritten and
	// then consulted (dependence-pruning fodder: reset before read).
	self.HandleMsg("announce", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("handleAnnounce").End()
		from := role(m.From)
		state.Set(ctx, "gen-"+from, m.Payload)
		state.Set(ctx, "hb-"+from, m.Payload)
		gen := state.Get(ctx, "gen-"+from)
		hb := state.Get(ctx, "hb-"+from)
		ctx.Log(gen.Str() + hb.Str())
		state.Set(ctx, "lastSeen-"+from, ctx.Now())
	})

	// A joining node pulls the cluster view; the reads feed logs only
	// (impact-pruning fodder).
	self.HandleRPC("GossipInfo", func(ctx *sim.Context, args []sim.Value) sim.Value {
		defer ctx.Scope("gossipInfo").End()
		for _, peer := range peers {
			hb := state.Get(ctx, "hb-"+peer)
			load := state.Get(ctx, "load-"+peer)
			schema := state.Get(ctx, "schema-"+peer)
			ctx.Log(hb.Str() + load.Str() + schema.Str())
		}
		return sim.V("view")
	})

	self.HandleRPC("GetVersion", func(ctx *sim.Context, args []sim.Value) sim.Value {
		return sim.V("1.1.12")
	})

	// --- Repair participant side. Replies are droppable messages —
	// Cassandra's droppable verbs, eligible for application-level drops. ---
	self.HandleMsg("take-snapshot", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("takeSnapshot").End()
		ctx.Sleep(35) // flush + hard-link the sstables
		lfs.Write(ctx, "/var/cassandra/snapshot-repair", sim.V(me))
		_ = ctx.Send(m.From, "snapshot-ack", sim.V(me), sim.Droppable())
	})

	self.HandleMsg("tree-request", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("validateTree").End()
		ctx.Sleep(30)
		// A real (miniature) merkle pass: hash every key of the local
		// column store into the response.
		tree := sim.V("")
		mem := ctx.NamedObject("memtable")
		parts := make([]string, 0, p.dataKeys)
		for k := 0; k < p.dataKeys; k++ {
			key := fmt.Sprintf("k%d", k)
			v := mem.Get(ctx, key) // memtable shadows the sstables
			if v.IsNil() {
				sst, err := lfs.Read(ctx, "/var/cassandra/data/"+key)
				if err != nil {
					parts = append(parts, key+"=")
					continue
				}
				v = sst
			}
			parts = append(parts, key+"="+v.Str())
			tree = sim.Derive("", tree, v)
		}
		resp := sim.Derive(me+"|"+strings.Join(parts, ";"), tree)
		_ = ctx.Send(m.From, "tree-response", resp, sim.Droppable())
	})

	self.HandleMsg("stream-request", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("applyStream").End()
		// Streamed key/value pairs land in the memtable (they reach the
		// sstables at the next flush, like real Cassandra).
		mem := ctx.NamedObject("memtable")
		for _, kv := range strings.Split(m.Payload.Str(), ";") {
			if kv == "" {
				continue
			}
			pair := strings.SplitN(kv, "=", 2)
			if len(pair) != 2 {
				continue
			}
			mem.Set(ctx, pair[0], sim.Derive(pair[1], m.Payload))
			ctx.Cluster().SetFact("ca.store."+myRole+"."+pair[0], pair[1])
			ctx.Sleep(12)
		}
		_ = ctx.Send(m.From, "stream-finished", sim.V(me), sim.Droppable())
	})

	// --- Coordinator-side session tracking. ---
	self.HandleMsg("snapshot-ack", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("snapshotAck").End()
		n := session.Get(ctx, "snapshotAcks")
		session.Set(ctx, "snapshotAcks", sim.Derive(n.Int()+1, n))
		if n.Int()+1 >= session.Get(ctx, "neighbors").Int() {
			// CA1's W: its disappearance strands the coordinator.
			ctx.NamedCond("snapshots-done").Signal(ctx, sim.V("ok"))
		}
	})

	self.HandleMsg("tree-response", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("treeResponse").End()
		// Remember each neighbour's tree for the diff phase.
		body := m.Payload.Str()
		if i := strings.Index(body, "|"); i > 0 {
			session.Set(ctx, "tree-"+role(m.From), sim.Derive(body[i+1:], m.Payload))
		}
		n := session.Get(ctx, "treeResponses")
		session.Set(ctx, "treeResponses", sim.Derive(n.Int()+1, n))
		if n.Int()+1 >= session.Get(ctx, "neighbors").Int() {
			// CA2's W.
			ctx.NamedCond("trees-done").Signal(ctx, sim.V("ok"))
		}
	})

	self.HandleMsg("stream-finished", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("streamFinished").End()
		n := session.Get(ctx, "pendingStreams")
		// CA3's W: the loop-exit write the streaming phase polls for.
		session.Set(ctx, "pendingStreams", sim.Derive(n.Int()-1, n))
	})

	// IFailureDetectionEventListener::convict — the crash-recovery safety
	// net that aborts in-flight repair phases... except streaming, which the
	// implementers forgot (CA3's root cause).
	self.HandleMsg("convict", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("convict").End()
		dead := role(m.Payload.Str())
		state.Set(ctx, "dead-"+dead, sim.V(true))
		phase := session.Get(ctx, "phase")
		if ctx.Guard(sim.Derive(phase.Str() == "snapshot" || phase.Str() == "validation", phase)) {
			ctx.Cluster().SetFact("ca.repair", "aborted")
			ctx.NamedCond("snapshots-done").Signal(ctx, sim.V("aborted"))
			ctx.NamedCond("trees-done").Signal(ctx, sim.V("aborted"))
		}
	})

	// Pull the cluster view, announce the (re)join, then start gossiping.
	if !coordinator {
		for _, peer := range peers {
			if peer == myRole {
				continue
			}
			if _, err := ctx.Call(peer, "GossipInfo"); err != nil {
				ctx.LogError("cassandra: cannot pull gossip view")
			}
		}
	}
	for _, peer := range peers {
		if peer != myRole {
			_ = ctx.Send(peer, "announce", sim.Derive("gen:"+me, tokens))
		}
	}
	startGossip(ctx, p, peers, myRole, state)
	if !coordinator {
		return
	}

	// --- The anti-entropy repair session (coordinator only). ---
	ctx.Sleep(p.repairDelay)
	if _, err := ctx.Call("cass1", "GetVersion"); err != nil {
		ctx.LogError("cassandra: version probe failed")
	}

	// Only live neighbours participate (a dead endpoint is excluded from
	// the session, as in real repair).
	var neighbors []string
	for _, nb := range peers[1:] {
		if ctx.Cluster().Lookup(nb) != "" {
			neighbors = append(neighbors, nb)
			ctx.Cluster().SetFact("ca.inSession."+nb, "true")
		}
	}
	if len(neighbors) == 0 {
		ctx.Cluster().SetFact("ca.repair", "aborted")
		return
	}
	session.Set(ctx, "neighbors", sim.V(len(neighbors)))
	session.Set(ctx, "phase", sim.V("snapshot"))
	for _, nb := range neighbors {
		_ = ctx.Send(nb, "take-snapshot", sim.V("repair-1"))
	}
	// CA1: no timeout, no retry — a lost ack hangs the repair forever.
	v, _ := ctx.NamedCond("snapshots-done").Wait(ctx)
	if ctx.Guard(sim.Derive(v.Str() == "aborted", v)) {
		ctx.Cluster().SetFact("ca.repair", "aborted")
		return
	}

	session.Set(ctx, "phase", sim.V("validation"))
	for _, nb := range neighbors {
		_ = ctx.Send(nb, "tree-request", sim.V("repair-1"))
	}
	// CA2: same hazard at the merkle-tree comparison.
	v, _ = ctx.NamedCond("trees-done").Wait(ctx)
	if ctx.Guard(sim.Derive(v.Str() == "aborted", v)) {
		ctx.Cluster().SetFact("ca.repair", "aborted")
		return
	}

	// Diff each neighbour's tree against the coordinator's own store and
	// stream exactly the keys whose values differ.
	session.Set(ctx, "phase", sim.V("streaming"))
	session.Set(ctx, "pendingStreams", sim.V(len(neighbors)))
	for _, nb := range neighbors {
		remote := decodeTree(session.Get(ctx, "tree-"+nb).Str())
		mem := ctx.NamedObject("memtable")
		var deltas []string
		var taints []sim.Value
		for k := 0; k < p.dataKeys; k++ {
			key := fmt.Sprintf("k%d", k)
			mine := mem.Get(ctx, key)
			if mine.IsNil() {
				sst, err := lfs.Read(ctx, "/var/cassandra/data/"+key)
				if err != nil {
					continue
				}
				mine = sst
			}
			taints = append(taints, mine)
			if remote[key] != mine.Str() {
				deltas = append(deltas, key+"="+mine.Str())
			}
		}
		_ = ctx.Send(nb, "stream-request", sim.Derive(strings.Join(deltas, ";"), taints...))
	}
	// CA3: the streaming poll — not covered by the convict abort.
	ctx.SyncLoop(sim.LoopOpts{Name: "waitStreams", SleepTicks: 45}, func(ctx *sim.Context) sim.Value {
		pending := session.Get(ctx, "pendingStreams")
		return sim.Derive(pending.Int() <= 0, pending)
	})
	ctx.Cluster().SetFact("ca.repair", "done")
}

// startGossip launches the node's gossip daemons and failure detector.
func startGossip(ctx *sim.Context, p params, peers []string, myRole string, state *sim.Object) {
	// --- Gossip send path, two tiers. The light heartbeat rounds carry the
	// endpoint state. The heavy full-digest recomputation hashes the whole
	// local state on a plain worker thread: selective tracing skips those
	// heap accesses, but the Section 8.2 exhaustive ablation pays for every
	// one, stretching full-digest rounds until the failure detector declares
	// this live node dead. ---
	ctx.GoDaemon("heartbeat-gossiper", func(ctx *sim.Context) {
		defer ctx.Scope("heartbeatGossiper").End()
		for round := 1; ; round++ {
			digest := sim.Derive(round, state.Get(ctx, "tokens"))
			for _, peer := range peers {
				if peer != myRole {
					_ = ctx.Send(peer, "gossip-digest", digest, sim.Droppable())
				}
			}
			ctx.Sleep(p.gossipEvery)
		}
	})

	ctx.GoDaemon("full-digest-worker", func(ctx *sim.Context) {
		defer ctx.Scope("fullDigestWorker").End()
		scratch := ctx.NamedObject("digestScratch")
		for round := 1; ; round++ {
			for i := 0; i < p.digestWork; i++ {
				scratch.Set(ctx, "acc", sim.V(round*31+i))
				_ = scratch.Get(ctx, "acc")
			}
			for _, peer := range peers {
				if peer != myRole {
					_ = ctx.Send(peer, "full-digest", sim.V(round), sim.Droppable())
				}
			}
			ctx.Sleep(p.fullDigestEvery)
		}
	})

	// --- Accrual failure detector: a silent-but-alive peer is a false
	// conviction (what the §8.2 exhaustive-tracing slowdown provokes). ---
	ctx.GoDaemon("failure-detector", func(ctx *sim.Context) {
		defer ctx.Scope("failureDetector").End()
		for {
			ctx.Sleep(p.fdThreshold / 3)
			now := ctx.Now()
			for _, peer := range peers {
				if peer == myRole {
					continue
				}
				last := state.Get(ctx, "lastFullDigest-"+peer)
				if !last.Bool() || int64(now.Int()-last.Int()) <= p.fdThreshold {
					continue
				}
				if ctx.Cluster().Lookup(peer) != "" {
					// The peer process is alive; gossip is just too slow.
					ctx.Cluster().SetFact("ca.false-positive-conviction", peer)
				}
			}
		}
	})

}
