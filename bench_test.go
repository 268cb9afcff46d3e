package fcatch_test

// One benchmark per table and experiment of the paper's evaluation section,
// plus micro-benchmarks for the analysis substrate. Regenerate everything
// with:
//
//	go test -bench=. -benchmem
//
// The rendered tables themselves come from `go run ./cmd/fcatch-bench -all`.

import (
	"bytes"
	"slices"
	"testing"

	"fcatch"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/hb"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// BenchmarkTable1Workloads times one uninstrumented fault-free run of every
// benchmark workload — the "Baseline NF" column's work.
func BenchmarkTable1Workloads(b *testing.B) {
	for _, w := range fcatch.Workloads() {
		b.Run(w.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, out := core.Run(w, sim.Config{Seed: 1}); out.Failed() {
					b.Fatalf("%s: %s", out.FailureKind(), out.Detail())
				}
			}
		})
	}
}

// BenchmarkTable2BugsFound runs detection + triggering over all workloads
// and verifies every catalogued bug is confirmed (Table 2).
func BenchmarkTable2BugsFound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := fcatch.RunEvaluation(fcatch.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		confirmed := 0
		for _, row := range e.Table2() {
			if row.Confirmed {
				confirmed++
			}
		}
		if confirmed != len(fcatch.Catalog) {
			b.Fatalf("confirmed %d/%d bugs", confirmed, len(fcatch.Catalog))
		}
		b.ReportMetric(float64(confirmed), "bugs")
	}
}

// BenchmarkTable3Detection measures the per-workload detection pass (observe
// two runs + both detectors) that produces Table 3's reports.
func BenchmarkTable3Detection(b *testing.B) {
	for _, w := range fcatch.Workloads() {
		b.Run(w.Name(), func(b *testing.B) {
			reports := 0
			for i := 0; i < b.N; i++ {
				res, err := fcatch.Detect(w, fcatch.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				reports = len(res.Reports)
			}
			b.ReportMetric(float64(reports), "reports")
		})
	}
}

// BenchmarkTable4Performance reproduces the Table 4 measurement: baseline vs
// traced runs plus analysis, reporting the slowdown factor.
func BenchmarkTable4Performance(b *testing.B) {
	opts := fcatch.DefaultOptions()
	opts.MeasureBaseline = true
	for _, w := range fcatch.Workloads() {
		b.Run(w.Name(), func(b *testing.B) {
			var slowdown float64
			for i := 0; i < b.N; i++ {
				res, err := fcatch.Detect(w, opts)
				if err != nil {
					b.Fatal(err)
				}
				slowdown = res.Observation.Timings.Slowdown()
			}
			b.ReportMetric(slowdown, "x-slowdown")
		})
	}
}

// BenchmarkTable5Pruning measures detection while reporting how many false
// positives the fault-tolerance analyses eliminated.
func BenchmarkTable5Pruning(b *testing.B) {
	for _, w := range fcatch.Workloads() {
		b.Run(w.Name(), func(b *testing.B) {
			var pruned int
			for i := 0; i < b.N; i++ {
				res, err := fcatch.Detect(w, fcatch.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				p := fcatch.PruneRow(w.Name(), res)
				pruned = p.LoopTimeout + p.WaitTimeout + p.Dependence + p.Impact
			}
			b.ReportMetric(float64(pruned), "pruned")
		})
	}
}

// BenchmarkCrashPointSensitivity runs the §8.1.2 study (three crash phases
// across all workloads).
func BenchmarkCrashPointSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := fcatch.Sensitivity(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(s.BugsByPhase["begin"])), "bugs-at-begin")
		b.ReportMetric(float64(len(s.BugsByPhase["end"])), "bugs-at-end")
	}
}

// BenchmarkExhaustiveTracing is the §8.2 ablation: every workload fault-free
// under selective and exhaustive tracing.
func BenchmarkExhaustiveTracing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fcatch.AblationTraceAll(1)
		failures := 0
		for _, r := range rows {
			if !r.ExhaustiveOK {
				failures++
			}
		}
		b.ReportMetric(float64(failures), "exhaustive-failures")
	}
}

// BenchmarkRandomInjection is the §8.3 baseline at bench scale (40 runs per
// workload here; `fcatch-bench -randinject -runs 400` for the paper's full
// campaign).
func BenchmarkRandomInjection(b *testing.B) {
	for _, w := range fcatch.Workloads() {
		b.Run(w.Name(), func(b *testing.B) {
			var unique int
			for i := 0; i < b.N; i++ {
				res, err := fcatch.Campaign(w, fcatch.CampaignConfig{Strategy: fcatch.StrategyRandom, Seed: 1, Budget: 40})
				if err != nil {
					b.Fatal(err)
				}
				unique = res.UniqueFailures()
			}
			b.ReportMetric(float64(unique), "unique-failures")
		})
	}
}

// BenchmarkCampaignSweep is the repository benchmark's `campaign` op as a Go
// benchmark, for profiling: one iteration is a coverage-guided 40-run
// campaign on each of the six workloads at Parallelism GOMAXPROCS (so
// `-cpu 2` matches `go run ./bench -workload campaign`). Heap profiles of it
// (-memprofile, -memprofilerate 4096) are where EXPERIMENTS.md's
// allocation-per-injection-run table comes from.
func BenchmarkCampaignSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range fcatch.Workloads() {
			if _, err := fcatch.Campaign(w, fcatch.CampaignConfig{Strategy: fcatch.StrategyCoverage, Seed: 1, Budget: 40}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTriggerMatrix measures the §8.4 experiment: triggering every
// report of one workload with all applicable fault types.
func BenchmarkTriggerMatrix(b *testing.B) {
	w := fcatch.MustWorkload("HB2")
	res, err := fcatch.Detect(w, fcatch.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := fcatch.Trigger(w, res)
		if len(outs) != len(res.Reports) {
			b.Fatal("missing outcomes")
		}
	}
}

// BenchmarkPruningAblation measures detection with the fault-tolerance
// analyses disabled (the §8.4 ablation).
func BenchmarkPruningAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := fcatch.PruningAblation(fcatch.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, r := range rows {
			total += r.NoneAtAll
		}
		b.ReportMetric(float64(total), "unpruned-reports")
	}
}

// BenchmarkDetectorAnalysis isolates the trace-analysis phase (index build +
// both detectors) from the simulation runs: observe each workload's run pair
// once, then re-analyze it every iteration. This is the number the detector
// hot-path indices (occurrence maps, impact reverse index, memoized chain
// walks) move.
func BenchmarkDetectorAnalysis(b *testing.B) {
	for _, w := range fcatch.Workloads() {
		obs, err := core.Observe(w, fcatch.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		opts := detect.Options{Windows: detect.DeriveWindows(obs.Faulty, obs.FaultFirings)}
		b.Run(w.Name(), func(b *testing.B) {
			reports := 0
			for i := 0; i < b.N; i++ {
				gf := hb.New(obs.FaultFree)
				gy := hb.New(obs.Faulty)
				reg := detect.DetectRegularOpts(gf, w.Name(), opts)
				rec := detect.DetectRecoveryOpts(gf, gy, w.Name(), opts)
				reports = len(reg.Reports) + len(rec.Reports)
			}
			b.ReportMetric(float64(reports), "reports")
		})
	}
}

// BenchmarkOfflineSweep is the repository benchmark's `offline` op as a Go
// benchmark, for profiling: one iteration analyses every workload's saved
// trace pair — FCT4 bytes through trace.NewSource and hb.NewFromSource, then
// both detectors over the observation's windows — with no simulation. CPU
// profiles of it (-cpu 1, as `go run ./bench -workload offline` runs) are
// where CHANGES.md's decode/index shares come from.
func BenchmarkOfflineSweep(b *testing.B) {
	type saved struct {
		name              string
		faultFree, faulty bytes.Buffer
		windows           []detect.Window
	}
	var pairs []*saved
	for _, w := range fcatch.Workloads() {
		res, err := fcatch.Detect(w, fcatch.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		p := &saved{name: w.Name(), windows: res.Windows}
		if err := res.Observation.FaultFree.Encode(&p.faultFree); err != nil {
			b.Fatal(err)
		}
		if err := res.Observation.Faulty.Encode(&p.faulty); err != nil {
			b.Fatal(err)
		}
		pairs = append(pairs, p)
	}
	graph := func(raw []byte) *hb.Graph {
		src, err := trace.NewSource(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		g, err := hb.NewFromSource(src)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	b.ReportAllocs()
	b.ResetTimer()
	reports := 0
	for i := 0; i < b.N; i++ {
		reports = 0
		for _, p := range pairs {
			gf, gy := graph(p.faultFree.Bytes()), graph(p.faulty.Bytes())
			opts := detect.Options{Windows: p.windows}
			reports += len(detect.DetectRegularOpts(gf, p.name, opts).Reports)
			reports += len(detect.DetectRecoveryOpts(gf, gy, p.name, opts).Reports)
		}
	}
	b.ReportMetric(float64(reports), "reports")
}

// --- Substrate micro-benchmarks. ---

// BenchmarkSimulatorSteps measures raw scheduler throughput (steps/op).
func BenchmarkSimulatorSteps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := sim.NewCluster(sim.Config{Seed: 1})
		c.StartProcess("n", "m0", func(ctx *sim.Context) {
			for k := 0; k < 1000; k++ {
				ctx.Yield()
			}
		})
		c.Run()
	}
}

// BenchmarkSchedulerManyThreads measures a scheduler step among many threads
// of which few can run: 64 threads blocked on a latch while 2 others yield
// 5 000 times each. It reports ns per pick, so it prices the pick itself,
// not how many threads the run has spawned.
func BenchmarkSchedulerManyThreads(b *testing.B) {
	const blocked, yielders, yields = 64, 2, 5000
	b.ReportAllocs()
	var picks int64
	for i := 0; i < b.N; i++ {
		c := sim.NewCluster(sim.Config{Seed: 1})
		c.StartProcess("n", "m0", func(ctx *sim.Context) {
			release := ctx.NewCond("release")
			for range blocked {
				ctx.Go("waiter", func(ctx *sim.Context) { _, _ = release.Wait(ctx) })
			}
			var done [yielders]*sim.Cond
			for k := range done {
				done[k] = ctx.NewCond("done")
				ctx.Go("yielder", func(ctx *sim.Context) {
					for range yields {
						ctx.Yield()
					}
					done[k].Signal(ctx)
				})
			}
			for _, d := range done {
				_, _ = d.Wait(ctx)
			}
			release.Signal(ctx)
		})
		out := c.Run()
		if !out.Completed() {
			b.Fatalf("run did not complete: %s", out.Detail())
		}
		picks += out.Picks
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(picks), "ns/pick")
}

// BenchmarkTracedHeapOps measures the tracer's per-op overhead.
func BenchmarkTracedHeapOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceExhaustive})
		c.StartProcess("n", "m0", func(ctx *sim.Context) {
			obj := ctx.NamedObject("o")
			for k := 0; k < 500; k++ {
				obj.Set(ctx, "f", sim.V(k))
				_ = obj.Get(ctx, "f")
			}
		})
		c.Run()
	}
}

// BenchmarkForwardClosure measures Algorithm 1 on a real workload trace.
func BenchmarkForwardClosure(b *testing.B) {
	obs, err := core.Observe(fcatch.MustWorkload("MR2"), fcatch.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	g := hb.New(obs.FaultFree)
	seeds := g.EscapingSeeds("am#1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !slices.Contains(g.ForwardClosureDense(seeds), true) {
			b.Fatal("empty closure")
		}
	}
}

// BenchmarkTraceSaveLoad measures the on-disk trace format round trip.
func BenchmarkTraceSaveLoad(b *testing.B) {
	obs, err := core.Observe(fcatch.MustWorkload("HB1"), fcatch.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := dir + "/t.trace"
		if err := obs.FaultFree.Save(path); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.Load(path); err != nil {
			b.Fatal(err)
		}
	}
}
