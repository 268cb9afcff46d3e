package sim_test

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/zookeeper"
	"fcatch/internal/core"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// siteLog is a fold that records every SiteID it sees with its string.
type siteLog map[sim.SiteID]string

func (l siteLog) Fact(x *sim.Fact) {
	if x.Site != sim.NoSite {
		l[x.Site] = x.SiteName
	}
}
func (siteLog) DepSite() string { return "" }

// foldedCluster builds w's cluster under a siteLog fold without running it.
func foldedCluster(w core.Workload, plan *sim.FaultPlan) (*sim.Cluster, siteLog) {
	log := siteLog{}
	cfg := sim.Config{Seed: 1, Tracing: sim.TraceSelective, Fold: log, Plan: plan}
	w.Tune(&cfg)
	c := sim.NewCluster(cfg)
	w.Configure(c)
	return c, log
}

// TestSiteIDsAreProcessWide: clusters of two different workloads, built
// side by side so that neither reuses the other's PC cache, give every
// source position they share the same SiteID.
func TestSiteIDsAreProcessWide(t *testing.T) {
	c1, log1 := foldedCluster(mapreduce.NewMR1(), nil)
	c2, log2 := foldedCluster(mapreduce.NewMR2(), nil)
	c1.Run()
	c2.Run()
	ids := map[string]sim.SiteID{}
	for id, s := range log1 {
		ids[s] = id
	}
	shared := 0
	for id, s := range log2 {
		if id1, ok := ids[s]; ok {
			shared++
			if id1 != id {
				t.Errorf("site %s is %d in MR1 and %d in MR2", s, id1, id)
			}
		}
	}
	if shared < 10 {
		t.Fatalf("MR1 and MR2 share %d sites, want at least 10", shared)
	}
}

// TestFinishedClusterKeepsSiteNames: a finished cluster answers SiteName
// from its own snapshot of the process-wide table, which stays right while
// other clusters run and intern sites on another goroutine (run under
// -race).
func TestFinishedClusterKeepsSiteNames(t *testing.T) {
	c, log := foldedCluster(mapreduce.NewMR1(), nil)
	c.Run()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		core.Run(zookeeper.New(), sim.Config{Seed: 1, Tracing: sim.TraceSelective})
		for i := range 500 {
			sim.InternSite(fmt.Sprintf("test/finished-cluster.go:%d", i))
		}
	}()
	go func() {
		defer wg.Done()
		for range 50 {
			for id, s := range log {
				if got := c.SiteName(id); got != s {
					t.Errorf("SiteName(%d) = %q after the run, want %q", id, got, s)
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestUnknownSitesAreNotInterned: site strings that come from outside the
// process — plan events off the wire or a scenario flag, a fold's DepSite
// off a trace file — are looked up, never interned, so 10 000 distinct ones
// leave the process-wide table as it was, also through a run.
func TestUnknownSitesAreNotInterned(t *testing.T) {
	const n = 10_000
	before := sim.SiteTableLen()
	specs := make([]sim.FaultSpec, n)
	for i := range specs {
		specs[i] = sim.FaultSpec{Site: fmt.Sprintf("nowhere/plan.go:%d", i)}
	}
	for i := range n {
		sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective, Fold: discard{site: fmt.Sprintf("nowhere/dep.go:%d", i)}})
	}
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective, Fold: discard{site: "nowhere/dep.go:0"},
		Plan: sim.NewScenarioPlan(specs, "", nil)})
	c.StartProcess("node", "m0", func(ctx *sim.Context) { ctx.Go("child", func(*sim.Context) {}) })
	if out := c.Run(); !out.Completed() || len(out.FaultFirings) != 0 {
		t.Fatalf("run: %s, %d firings", out.Detail(), len(out.FaultFirings))
	}
	if after := sim.SiteTableLen(); after != before {
		t.Fatalf("the site table went from %d to %d sites", before, after)
	}
}

// unseenSiteArg marks the child process of TestUnseenPlanSiteFires; the
// site to aim at follows it.
const unseenSiteArg = "unseen-plan-site"

// TestUnseenPlanSiteFires: a scenario naming a site the process has never
// executed fires there. The parent finds an app site and its first
// execution in MR1's trace and re-runs this test binary on just this test;
// that fresh process, whose table does not hold the site, runs MR1 under a
// plan crashing at it.
func TestUnseenPlanSiteFires(t *testing.T) {
	if args := flag.Args(); len(args) == 2 && args[0] == unseenSiteArg {
		site := args[1]
		if sim.SiteInterned(site) {
			t.Fatalf("site %s is interned before any cluster ran it", site)
		}
		w := mapreduce.NewMR1()
		plan := sim.NewScenarioPlan([]sim.FaultSpec{{Site: site, Occurrence: 1}}, w.CrashTarget(), w.RestartRoles())
		_, out := core.Run(w, sim.Config{Seed: 1, Plan: plan})
		if len(out.FaultFirings) != 1 || out.FaultFirings[0].Site != site {
			t.Fatalf("the plan at %s fired %+v", site, out.FaultFirings)
		}
		return
	}

	c, _ := core.Run(mapreduce.NewMR1(), sim.Config{Seed: 1, Tracing: sim.TraceSelective})
	tr := c.Trace()
	site := ""
	for i := range tr.Records {
		r := &tr.Records[i]
		if s := tr.Str(r.Site); r.Kind == trace.KMsgSend && strings.HasPrefix(s, "apps/") {
			site = s
			break
		}
	}
	if site == "" {
		t.Fatal("MR1 sends no message from an app site")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnseenPlanSiteFires$", "-test.v", unseenSiteArg, site)
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestUnseenPlanSiteFires") {
		t.Fatalf("fresh process aiming at %s: %v\n%s", site, err, out)
	}
}

// TestHandlerLabelsBuiltOncePerProcess: nodes of two clusters that register
// the same handler share one label string.
func TestHandlerLabelsBuiltOncePerProcess(t *testing.T) {
	var labels []string
	for range 2 {
		c := sim.NewCluster(sim.Config{Seed: 1})
		c.StartProcess("srv", "m0", func(ctx *sim.Context) {
			ctx.Self().HandleRPC("Echo", func(_ *sim.Context, args []sim.Value) sim.Value { return args[0] })
			labels = append(labels, sim.HandlerLabels(ctx.Self())...)
		})
		c.Run()
	}
	if len(labels) != 4 {
		t.Fatalf("labels %q, want rpc:Echo and rpc-reply:Echo twice", labels)
	}
	for i := range 2 {
		a, b := labels[i], labels[i+2]
		if a != b || unsafe.StringData(a) != unsafe.StringData(b) {
			t.Errorf("the two clusters' %q and %q are separate strings", a, b)
		}
	}
}
