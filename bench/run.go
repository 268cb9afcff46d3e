package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// setupRounds is how often the untraced run repeats set-up; setup_s is the
// median round.
const setupRounds = 3

// result is one run's outcome: the metrics by name, and the op tally behind
// fail_share.
type result struct {
	metrics           map[string]float64
	attempted, failed int
	sweeps, ops       int
}

// sweepStats accumulates what the sweeps of one measurement phase saw.
type sweepStats struct {
	sweeps, ops, runs int
	sweepMs           []float64
	itemMs            map[string][]float64 // op latencies by item
	elapsed           time.Duration
}

// sweep runs the workload's op once on every item, in an order drawn from the
// input seed, and checks every answer.
func sweep(cfg *config, wl *workload, st *state, chk *checker, rec *recorder, stats *sweepStats) {
	t0 := time.Now()
	for _, i := range cfg.order.Perm(len(cfg.items)) {
		it := cfg.items[i]
		o0 := time.Now()
		root := -1
		if rec != nil { // the untraced loop must not pay for the span's name
			root = rec.begin("op." + wl.name + "." + it.name)
		}
		a, err := wl.op(cfg, st, it, rec)
		rec.end(root)
		d := time.Since(o0)
		chk.check(it, a, err)
		if stats != nil {
			stats.ops++
			stats.runs += a.Runs
			stats.itemMs[it.name] = append(stats.itemMs[it.name], float64(d)/1e6)
		}
	}
	if stats != nil {
		stats.sweeps++
		stats.sweepMs = append(stats.sweepMs, float64(time.Since(t0))/1e6)
	}
}

// sweepFor runs whole sweeps until d has passed, at least one.
func sweepFor(d time.Duration, cfg *config, wl *workload, st *state, chk *checker, rec *recorder) *sweepStats {
	stats := &sweepStats{itemMs: map[string][]float64{}}
	start := time.Now()
	for {
		sweep(cfg, wl, st, chk, rec, stats)
		if stats.elapsed = time.Since(start); stats.elapsed >= d {
			return stats
		}
	}
}

// itemQuantiles are the op latency quantiles, taken over the items' median
// latencies: p50 is the median item's median and p90 the dearest item's. The
// items differ in cost several times over, so a quantile of the pooled samples
// sits at the edge of one item's cluster (the plain median is the slowest
// sample of the third-cheapest item or the fastest of the fourth) and jumps
// from run to run; the items' medians do not. campaign and dist complete
// fewer than 100 ops, too few for a pooled p90 with ten samples beyond it.
func itemQuantiles(cfg *config, stats *sweepStats) (p50, p90 float64) {
	var medians []float64
	for _, it := range cfg.items {
		medians = append(medians, quantile(stats.itemMs[it.name], 0.5))
	}
	sort.Float64s(medians)
	n := len(medians)
	return (medians[(n-1)/2] + medians[n/2]) / 2, quantile(medians, 0.9)
}

// setUp builds the workload's inputs and runs its warm-up sweeps, rounds times
// over, and returns the last round's state with the median round time. Every
// answer a round produces goes through the checker.
func setUp(cfg *config, wl *workload, chk *checker, rounds int) (*state, float64, error) {
	warm := wl.warmup
	if cfg.warmup > 0 {
		warm = cfg.warmup
	}
	var st *state
	var secs []float64
	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		var err error
		if st, err = wl.setup(cfg); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		for _, it := range cfg.items {
			if ref, ok := st.refs[it.name]; ok {
				chk.check(it, ref, nil)
			}
		}
		for i := 0; i < warm; i++ {
			sweep(cfg, wl, st, chk, nil, nil)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return st, quantile(secs, 0.5), nil
}

// measure is the untraced run: set-up, then whole sweeps for cfg.seconds.
func measure(cfg *config, wl *workload, exp *expected) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs(cfg)))
	chk := newChecker(exp, cfg, wl)
	st, setupS, err := setUp(cfg, wl, chk, setupRounds)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stats := sweepFor(time.Duration(cfg.seconds*float64(time.Second)), cfg, wl, st, chk, nil)
	runtime.ReadMemStats(&m1)

	ops := float64(stats.ops)
	p50, p90 := itemQuantiles(cfg, stats)
	return &result{
		metrics: map[string]float64{
			"setup_s":         setupS,
			"ops_per_s":       ops / stats.elapsed.Seconds(),
			"runs_per_s":      float64(stats.runs) / stats.elapsed.Seconds(),
			"op_ms_p50":       p50,
			"op_ms_p90":       p90,
			"sweep_ms_p50":    quantile(stats.sweepMs, 0.5),
			"allocs_per_op":   float64(m1.Mallocs-m0.Mallocs) / ops,
			"alloc_kb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ops,
		},
		attempted: chk.attempted, failed: chk.failed,
		sweeps: stats.sweeps, ops: stats.ops,
	}, nil
}

// measureTraced is the traced run. A quarter of cfg.seconds goes to untraced
// sweeps and a quarter to the same sweeps with spans, whose ratio is the
// benchmark's own tracing overhead; then the layer ledger runs its fixed work.
func measureTraced(cfg *config, wl *workload, exp *expected) (*result, *recorder, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs(cfg)))
	chk := newChecker(exp, cfg, wl)
	st, _, err := setUp(cfg, wl, chk, 1)
	if err != nil {
		return nil, nil, err
	}
	quarter := time.Duration(cfg.seconds / 4 * float64(time.Second))
	plain := sweepFor(quarter, cfg, wl, st, chk, nil)
	rec := newRecorder()
	traced := sweepFor(quarter, cfg, wl, st, chk, rec)

	res := &result{sweeps: traced.sweeps, ops: traced.ops}
	lAttempted, lFailed, err := runLedger(cfg, exp, rec)
	if err != nil {
		return nil, nil, err
	}
	if err := checkNesting(rec.spans); err != nil {
		return nil, nil, err
	}
	res.metrics = layerMetrics(cfg, rec)
	for _, it := range cfg.items {
		res.metrics["item."+it.name+".op_ms_p50"] = quantile(traced.itemMs[it.name], 0.5)
	}
	res.metrics["bench.trace_overhead_x"] = ratio(
		float64(traced.ops)/traced.elapsed.Seconds(), float64(plain.ops)/plain.elapsed.Seconds())
	res.attempted, res.failed = chk.attempted+lAttempted, chk.failed+lFailed
	return res, rec, nil
}
