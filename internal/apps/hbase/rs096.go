package hbase

import (
	"fcatch/internal/sim"
	"fcatch/internal/storage"
)

// rs096Main is a 0.96.0 RegionServer: it registers an ephemeral liveness
// znode and serves the master's assignment and coordination requests.
func rs096Main(ctx *sim.Context, p params, kv *storage.KV, gfs *storage.GlobalFS) {
	defer ctx.Scope("rsMain").End()
	self := ctx.Self()

	self.HandleMsg("master-ping", func(ctx *sim.Context, m sim.Message) {
		ctx.Sleep(60)
		_ = ctx.Send(m.From, "ping-ack", m.Payload)
	})

	self.HandleRPC("GetServerInfo", func(ctx *sim.Context, args []sim.Value) sim.Value {
		return sim.V(ctx.PID() + ":info")
	})

	self.HandleMsg("balancer-mode", func(ctx *sim.Context, m sim.Message) {
		ctx.NamedObject("rsState").Set(ctx, "balancer", m.Payload)
	})

	self.HandleMsg("master-ping-backup", func(ctx *sim.Context, m sim.Message) {})

	self.HandleMsg("startup-report", func(ctx *sim.Context, m sim.Message) {
		ctx.NamedObject("rsState").Set(ctx, "masterReport", m.Payload)
	})

	self.HandleMsg("previous-master-info", func(ctx *sim.Context, m sim.Message) {
		ctx.NamedObject("rsState").Set(ctx, "prevMaster", m.Payload)
	})

	self.HandleMsg("split-old", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("splitOldLogs").End()
		ctx.Sleep(70)
		_ = gfs.Delete(ctx, "/hbase/oldlogs/"+ctx.PID())
		// The completion report the master's untimed wait depends on.
		_ = ctx.Send(m.From, "split-old-done", sim.V(ctx.PID()))
	})

	self.HandleMsg("ns-init", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("namespaceInit").End()
		ctx.Sleep(60)
		_ = ctx.Send(m.From, "ns-ready", sim.V(ctx.PID()))
	})

	self.HandleMsg("open-region", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("openRegion").End()
		region := m.Payload.Str()
		path := "/hbase/region-state/" + region
		for k := 0; k < p.stateWrites; k++ {
			if err := kv.SetData(ctx, path, sim.Derive("OPEN", m.Payload)); err != nil {
				_, _ = kv.Create(ctx, path, sim.Derive("OPENING", m.Payload))
			}
			ctx.Sleep(5)
		}
		if region == "special" {
			_ = ctx.Send(m.From, "region-ack", m.Payload)
			return
		}
		_ = ctx.Send(m.From, "region-opened", m.Payload)
	})

	// The Figure 6 sequence: register OPENING, do the actual open work (two
	// global-FS files and a znode — the paper's description of the hazard
	// window), then register OPENED. The OPENED update travels through
	// ZooKeeper, so a network-level message drop cannot remove it — which is
	// why HB1 is only triggerable by a node crash (Section 8.4).
	self.HandleMsg("open-meta", func(ctx *sim.Context, m sim.Message) {
		defer ctx.Scope("openMeta").End()
		if err := kv.SetData(ctx, "/hbase/unassigned/meta", sim.V("OPENING")); err != nil {
			_, _ = kv.Create(ctx, "/hbase/unassigned/meta", sim.V("OPENING"))
		}
		gfs.Write(ctx, "/hbase/meta/info-file", sim.V(ctx.PID()))
		gfs.Write(ctx, "/hbase/meta/seqid-file", sim.V(ctx.PID()))
		_, _ = kv.Create(ctx, "/hbase/meta-region", sim.V(ctx.PID()))
		_ = kv.SetData(ctx, "/hbase/unassigned/meta", sim.V("OPENED"))
	})

	// Liveness registration.
	_, _ = kv.CreateEphemeral(ctx, "/hbase/rs/"+ctx.PID(), sim.V(ctx.PID()))

	// Periodic server-load reports feed the master's balancer.
	ctx.GoDaemon("load-reporter", func(ctx *sim.Context) {
		defer ctx.Scope("loadReporter").End()
		for load := 0; ; load++ {
			_ = ctx.Send("hmaster", "server-load", sim.Derive(load, sim.V(ctx.PID())))
			ctx.Sleep(160)
		}
	})

	// A RegionServer outlives the master's startup: stay up (keeping the
	// cluster workload alive across a master restart) until the cluster is
	// declared up.
	ctx.SyncLoop(sim.LoopOpts{Name: "serveUntilClusterUp", SleepTicks: 60}, func(ctx *sim.Context) sim.Value {
		return sim.V(ctx.Cluster().FactStr("hb.clusterUp") == "true")
	})
}
