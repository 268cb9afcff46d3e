package sim_test

import (
	"bytes"
	"maps"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/zookeeper"
	"fcatch/internal/core"
	"fcatch/internal/sim"
)

// tracedRun runs w fault-free under selective tracing and returns its
// outcome (wall-clock time left out) and its saved trace bytes.
func tracedRun(t *testing.T, w core.Workload) (sim.Outcome, []byte) {
	t.Helper()
	c, out := core.Run(w, sim.Config{Seed: 1, Tracing: sim.TraceSelective})
	var buf bytes.Buffer
	if err := c.Trace().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	o := *out
	o.Elapsed = 0
	return o, buf.Bytes()
}

// TestRunsRecycleRecords: a finished run hands its threads, call records,
// node queue arrays and maps, scheduler arrays (thread list, ready list,
// timer heap), rng and site tables (the PC cache and the SiteID-indexed
// arrays) to the next cluster as one spare, so a second identical run takes
// every record it needs from the spare, makes none (the spares hold the
// same records, maps and arrays, by address, after it), and produces the
// same outcome and trace bytes.
// The spare then serves ZK, whose nodes differ in number from MR1's, and
// MR1 again: each run still saves the trace a run of its own saves.
func TestRunsRecycleRecords(t *testing.T) {
	_, zkTrace := tracedRun(t, zookeeper.New())
	first, firstTrace := tracedRun(t, mapreduce.NewMR1())
	before := sim.IdleRecords()
	kinds := map[string]int{}
	for r := range before {
		k := reflect.TypeOf(r).String()
		if m, ok := r.(sim.MapRecord); ok {
			k = m.Table
		}
		kinds[k]++
	}
	for _, k := range []string{
		"*sim.Thread", "*sim.callState", "*rand.Rand", "*sim.queuedItem", "**sim.Thread", "*sim.timer",
		"rpcHandlers", "msgHandlers", "eventHandlers", "pendingCalls", "namedObjs", "namedConds",
		"siteCache", "*trace.Sym", "*int32", "*bool",
	} {
		if kinds[k] == 0 {
			t.Fatalf("no %s in the spares after a run: %v", k, kinds)
		}
	}

	second, secondTrace := tracedRun(t, mapreduce.NewMR1())
	if after := sim.IdleRecords(); !maps.Equal(before, after) {
		made := 0
		for r := range after {
			if before[r] == 0 {
				made++
			}
		}
		t.Errorf("the repeated run made %d records the spares did not hold", made)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("outcomes differ:\nfirst  %+v\nsecond %+v", first, second)
	}
	if !bytes.Equal(firstTrace, secondTrace) {
		t.Errorf("trace bytes differ (%d and %d bytes)", len(firstTrace), len(secondTrace))
	}

	if _, got := tracedRun(t, zookeeper.New()); !bytes.Equal(got, zkTrace) {
		t.Errorf("ZK on MR1's spare: trace bytes differ (%d and %d bytes)", len(got), len(zkTrace))
	}
	third, thirdTrace := tracedRun(t, mapreduce.NewMR1())
	if !reflect.DeepEqual(first, third) {
		t.Errorf("MR1 on ZK's spare: outcomes differ:\nfirst %+v\nthird %+v", first, third)
	}
	if !bytes.Equal(firstTrace, thirdTrace) {
		t.Errorf("MR1 on ZK's spare: trace bytes differ (%d and %d bytes)", len(firstTrace), len(thirdTrace))
	}
}

// TestConcurrentClustersShareRecords: clusters on two goroutines take
// spares from and give them to the same idle list, so records one cluster
// zeroed serve the other; each run still saves the trace a run made alone
// saves.
func TestConcurrentClustersShareRecords(t *testing.T) {
	workloads := []func() core.Workload{
		func() core.Workload { return mapreduce.NewMR1() },
		func() core.Workload { return zookeeper.New() },
	}
	want := make([][]byte, len(workloads))
	for i, w := range workloads {
		_, want[i] = tracedRun(t, w())
	}
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 {
				k := (g + i) % len(workloads)
				if _, got := tracedRun(t, workloads[k]()); !bytes.Equal(got, want[k]) {
					t.Errorf("goroutine %d run %d: trace differs from the run made alone", g, i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestIdleListsStayWithinBounds: a run with more calls than a spare's item
// bound leaves its spare holding exactly that many call records, more
// finished clusters than the spares' bound leave the list at that bound,
// and no list or array of a spare grows past the item bound.
func TestIdleListsStayWithinBounds(t *testing.T) {
	items, spares := sim.MaxSpareItems, sim.MaxSpares
	// Clusters that never run take the spares other tests left and give
	// none back, so the list starts empty.
	for range spares {
		sim.NewCluster(sim.Config{Seed: 1})
	}
	if n := sim.IdleLists()["spares"][0]; n != 0 {
		t.Fatalf("%d spares left after %d clusters took one each", n, spares)
	}

	c := sim.NewCluster(sim.Config{Seed: 1})
	c.StartProcess("srv", "m1", func(ctx *sim.Context) {
		ctx.Self().HandleRPC("Echo", func(_ *sim.Context, args []sim.Value) sim.Value { return args[0] })
	})
	c.StartProcess("client", "m0", func(ctx *sim.Context) {
		for range items + 100 {
			if _, err := ctx.Call("srv", "Echo", sim.V(1)); err != nil {
				panic(err)
			}
		}
	})
	if out := c.Run(); !out.Completed() {
		t.Fatalf("run did not complete: %s", out.Detail())
	}
	if l := sim.IdleLists(); l["spares"][0] != 1 || l["calls"][0] != items {
		t.Fatalf("after %d calls the list holds %d spares with at most %d call records, want 1 holding %d",
			items+100, l["spares"][0], l["calls"][0], items)
	}

	var cs []*sim.Cluster
	for range spares + 2 {
		cs = append(cs, sim.NewCluster(sim.Config{Seed: 1}))
	}
	for _, c := range cs {
		c.StartProcess("node", "m0", func(ctx *sim.Context) { ctx.Go("child", func(*sim.Context) {}) })
		if out := c.Run(); !out.Completed() {
			t.Fatalf("run did not complete: %s", out.Detail())
		}
	}
	for name, l := range sim.IdleLists() {
		if l[0] > l[1] || name == "spares" && l[0] != l[1] {
			t.Errorf("idle %s: %d, bound %d", name, l[0], l[1])
		}
	}
}

// TestHandedBackRecordsKeepNoClusterAlive: a record is zeroed and a node's
// map cleared as it is handed back, so the spares keep nothing of a
// finished cluster reachable and the GC collects it: neither a fact nor a
// handler closure outlives the run. The finalizers sit on objects the fact
// and the closure hold, not on the cluster: a finalizer on an object in a
// cycle never runs.
func TestHandedBackRecordsKeepNoClusterAlive(t *testing.T) {
	collected := make(chan string, 2)
	probe := func(name string) *[2]*byte {
		p := new([2]*byte)
		runtime.SetFinalizer(p, func(*[2]*byte) { collected <- name })
		return p
	}
	func() {
		w := mapreduce.NewMR1()
		cfg := sim.Config{Seed: 1}
		w.Tune(&cfg)
		c := sim.NewCluster(cfg)
		w.Configure(c)
		c.SetFact("probe", probe("fact"))
		held := probe("handler closure")
		c.StartProcess("probe", "m-probe", func(ctx *sim.Context) {
			ctx.Self().HandleRPC("Probe", func(*sim.Context, []sim.Value) sim.Value { return sim.V(held != nil) })
		})
		c.Run()
	}()
	left := map[string]bool{"fact": true, "handler closure": true}
	for range 20 {
		runtime.GC()
		select {
		case name := <-collected:
			delete(left, name)
			if len(left) == 0 {
				return
			}
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("still reachable after the run handed its records back: %v", left)
}
