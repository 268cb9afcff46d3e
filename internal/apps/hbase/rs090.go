package hbase

import (
	"fmt"

	"fcatch/internal/sim"
	"fcatch/internal/storage"
)

// rs090Main is the 0.90.1 RegionServer: it hosts the user region, logs every
// edit to its write-ahead log, and replicates edits to the peer cluster via
// a znode-backed queue — with the buggy early deletions of HB2/HB5/HB6.
func rs090Main(ctx *sim.Context, p params, kv *storage.KV, gfs *storage.GlobalFS) {
	defer ctx.Scope("rsMain").End()
	self := ctx.Self()
	me := ctx.PID()
	mem := ctx.NamedObject("memstore")

	// The replication queue skeleton (a marker plus one znode per log,
	// holding the not-yet-shipped keys) is seeded at deploy time; see
	// Configure.

	// Metric znodes, periodically refreshed (impact-pruning fodder: the
	// recovery path reads them for logging only).
	ctx.GoDaemon("metrics-writer", func(ctx *sim.Context) {
		defer ctx.Scope("metricsWriter").End()
		for round := 0; ; round++ {
			for i := 0; i < p.regions; i++ {
				path := fmt.Sprintf("/hbase/rs-info/%s/metric-%d", me, i)
				if err := kv.SetData(ctx, path, sim.V(round)); err != nil {
					_, _ = kv.Create(ctx, path, sim.V(round))
				}
			}
			ctx.Sleep(120)
		}
	})

	// Split progress bookkeeping, refreshed periodically (dependence-
	// pruning fodder: the master rewrites it before reading).
	ctx.GoDaemon("progress-writer", func(ctx *sim.Context) {
		for i := 0; ; i++ {
			path := "/hbase/split-progress/" + me
			if err := kv.SetData(ctx, path, sim.V(i)); err != nil {
				_, _ = kv.Create(ctx, path, sim.V(i))
			}
			ctx.Sleep(95)
		}
	})

	self.HandleMsg("open-root", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("openRoot").End()
		gfs.Write(ctx, "/hbase/root/info-"+me, sim.V(me))
		_, _ = kv.Create(ctx, "/hbase/root-region-server", sim.V(me))
		ctx.Sleep(25)
		// The notification HB3's wait and HB4's poll both depend on; its
		// loss (crash or drop) hangs the master.
		_ = ctx.Send(m.From, "root-opened", sim.V(me))
	})

	self.HandleRPC("PutLocal", func(ctx *sim.Context, args []sim.Value) sim.Value {
		defer ctx.Scope("putLocal").End()
		key := args[0]
		n := mem.Get(ctx, "count").Int()
		mem.Set(ctx, fmt.Sprintf("edit-%d", n), key)
		mem.Set(ctx, "count", sim.V(n+1))

		seg := "/hbase/hlog/" + me
		logZnode := "/hbase/replication/" + me + "/log1"
		if n >= 3 {
			seg = "/hbase/hlog/" + me + "-seg2"
			logZnode = "/hbase/replication/" + me + "/log2"
		}
		logKey(ctx, gfs, seg, key)
		appendPending(ctx, kv, logZnode, key)

		// HB2's hazard: rolling to the second log segment takes a plain
		// lock znode; a crash between create and delete strands it and the
		// master's log split gives up.
		if n == 2 {
			_, _ = kv.Create(ctx, "/hbase/splitlog/"+me+"-lock", sim.V(me))
			gfs.Write(ctx, "/hbase/hlog/"+me+"-seg2", sim.V(""))
			ctx.Sleep(12)
			_ = kv.Delete(ctx, "/hbase/splitlog/"+me+"-lock")
		}
		return sim.Derive("ok", key)
	})

	self.HandleMsg("flush", func(ctx *sim.Context, m sim.Message) {
		from := m.From
		ctx.Go("flush-and-replicate", func(ctx *sim.Context) {
			defer ctx.Scope("flushAndReplicate").End()
			flushAndReplicate(ctx, p, kv, gfs, me)
			_ = ctx.Send(from, "flush-done", sim.V(me))
		})
	})

	// Liveness registration: the ephemeral znode whose creation registers
	// this server and whose expiry triggers the master's recovery.
	_, _ = kv.CreateEphemeral(ctx, "/hbase/rs/"+me, sim.V(me))
}

// flushAndReplicate persists the memstore and ships the replication queue —
// deleting queue znodes a beat too early (HB5: the log znode before its tail
// edit ships; HB6: the queue marker before the final edit ships).
func flushAndReplicate(ctx *sim.Context, p params, kv *storage.KV, gfs *storage.GlobalFS, me string) {
	mem := ctx.NamedObject("memstore")
	n := mem.Get(ctx, "count").Int()

	// Flush: edits become visible table content.
	for i := 0; i < n; i++ {
		key := mem.Get(ctx, fmt.Sprintf("edit-%d", i))
		ctx.Cluster().SetFact("hb.table."+key.Str(), "flushed@"+me)
		ctx.Sleep(4)
	}

	// Replicate log1: ship all but the tail, delete the queue znode (too
	// early — HB5's W), then ship the tail.
	shipLog(ctx, kv, me, "log1", false)
	// Replicate log2 the same way but hold its tail back; then drop the
	// whole queue marker (HB6's W) before the very last edit ships.
	tail := shipLog(ctx, kv, me, "log2", true)
	_ = kv.Delete(ctx, "/hbase/replication/"+me)
	if tail != "" {
		shipKey(ctx, tail, me)
	}
}

// shipLog ships one log's pending edits, deleting the queue znode before the
// tail edit (HB5's W). With keepTail the final edit is returned unshipped so
// the caller can drop the queue marker first.
func shipLog(ctx *sim.Context, kv *storage.KV, me, log string, keepTail bool) string {
	pending, err := kv.GetData(ctx, "/hbase/replication/"+me+"/"+log)
	if err != nil {
		return ""
	}
	keys := splitKeys(pending.Str())
	for i, key := range keys {
		if i == len(keys)-1 {
			// The bug: the queue znode is deleted before the tail ships.
			_ = kv.Delete(ctx, "/hbase/replication/"+me+"/"+log)
			if keepTail {
				return key
			}
			shipKey(ctx, key, me)
			continue
		}
		// Correct order for non-tail edits: ship, then advance the cursor.
		shipKey(ctx, key, me)
		rest := joinKeys(keys[i+1:])
		_ = kv.SetData(ctx, "/hbase/replication/"+me+"/"+log, sim.Derive(rest, pending))
	}
	if len(keys) == 0 {
		_ = kv.Delete(ctx, "/hbase/replication/"+me+"/"+log)
	}
	return ""
}

func shipKey(ctx *sim.Context, key, me string) {
	ctx.Sleep(8) // network shipping latency: the HB5/HB6 hazard window
	_ = ctx.Send("peer", "replicate", sim.V(key))
	ctx.Cluster().SetFact("hb.replicated."+key, me)
}

// appendPending adds a key to a queue znode's pending list (the znode is
// seeded at deploy time, so this is always an update).
func appendPending(ctx *sim.Context, kv *storage.KV, path string, key sim.Value) {
	cur, _ := kv.GetData(ctx, path)
	joined := key.Str()
	if cur.Str() != "" {
		joined = cur.Str() + "," + key.Str()
	}
	_ = kv.SetData(ctx, path, sim.Derive(joined, cur, key))
}

func joinKeys(keys []string) string {
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ","
		}
		out += k
	}
	return out
}

// client090Main drives the HB2 workload: six puts routed through the master,
// then the completion signal.
func client090Main(ctx *sim.Context, p params) {
	defer ctx.Scope("clientMain").End()
	ctx.Sleep(120) // let the cluster come up
	for i := 0; i < p.edits; i++ {
		key := sim.V(fmt.Sprintf("row%d", i))
		for {
			if _, err := ctx.Call("hmaster", "Put", key); err == nil {
				break
			}
			ctx.Sleep(40)
		}
		ctx.Sleep(30)
	}
	for {
		if _, err := ctx.Call("hmaster", "FinishJob", sim.V(p.edits)); err == nil {
			return
		}
		ctx.Sleep(50)
	}
}
