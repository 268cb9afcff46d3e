package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"

	"fcatch"
	"fcatch/internal/campaign"
	"fcatch/internal/hb"
	"fcatch/internal/obs"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// ledgerReps is how often the ledger repeats its cheap probes (simulator,
// codec, index, and the traced predict and offline sweeps). The expensive
// ones (evaluation sweep, campaigns, dist) run once.
const ledgerReps = 3

// mallocs reads the heap allocation count. It stops the world, so probes call
// it outside their span.
func mallocs() int64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.Mallocs)
}

// probe records fn as one span and returns how many heap objects it allocated.
func probe(rec *recorder, name string, fn func()) int64 {
	m0 := mallocs()
	s := rec.begin(name)
	fn()
	rec.end(s)
	return mallocs() - m0
}

// runLedger does a fixed amount of work in every layer, each call into a
// layer in its own span with its work counted beside it, so that every
// per-layer metric is measured in every traced run whichever workload was
// chosen. It returns the tally of the ops it checked.
func runLedger(cfg *config, exp *expected, rec *recorder) (attempted, failed int, err error) {
	// The pipeline probes are sequential and run as the sequential workloads
	// do; the campaign probes compare parallelism 1 with cfg.workers, so all
	// of them run at GOMAXPROCS cfg.workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	st, err := offlineSetup(cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("ledger: %w", err)
	}

	for rep := 0; rep < ledgerReps; rep++ {
		for _, it := range cfg.items {
			simProbe(cfg, it, rec)
			p := st.pairs[it.name]
			if err := codecProbe(p.ff, rec); err != nil {
				return 0, 0, fmt.Errorf("ledger: %s: %w", it.name, err)
			}
			if err := codecProbe(p.fy, rec); err != nil {
				return 0, 0, fmt.Errorf("ledger: %s: %w", it.name, err)
			}
		}
	}

	// Traced sweeps of the three pipeline workloads give the core, detect and
	// inject spans; their answers are checked like any other op's.
	for _, s := range []struct {
		name string
		reps int
	}{{"predict", ledgerReps}, {"offline", ledgerReps}, {"evaluation", 1}} {
		wl, _ := workloadByName(s.name)
		chk := newChecker(exp, cfg, wl)
		for i := 0; i < s.reps; i++ {
			sweep(cfg, wl, st, chk, rec, nil)
		}
		attempted += chk.attempted
		failed += chk.failed
	}

	runtime.GOMAXPROCS(cfg.workers)
	for _, it := range cfg.items {
		if err := campaignProbe(cfg, it, st.pairs[it.name].ff, rec); err != nil {
			return 0, 0, fmt.Errorf("ledger: %s: %w", it.name, err)
		}
	}
	return attempted, failed, nil
}

// simRun is one simulated execution of the workload, set up as core does it.
func simRun(w fcatch.Workload, seed int64, mode sim.TracingMode) (*sim.Cluster, *sim.Outcome) {
	cfg := sim.Config{Seed: seed, Tracing: mode}
	if mode == sim.TraceSelective {
		cfg.TraceTickCost = 1
	}
	w.Tune(&cfg)
	c := sim.NewCluster(cfg)
	w.Configure(c)
	return c, c.Run()
}

// simProbe runs the fault-free execution untraced and traced.
func simProbe(cfg *config, it item, rec *recorder) {
	var out *sim.Outcome
	allocs := probe(rec, "sim.untraced", func() { _, out = simRun(it.w, cfg.seed, sim.TraceOff) })
	rec.add("sim.untraced_runs", 1)
	rec.add("sim.untraced_steps", out.Steps)
	rec.add("sim.untraced_allocs", allocs)

	var c *sim.Cluster
	probe(rec, "sim.traced", func() { c, out = simRun(it.w, cfg.seed, sim.TraceSelective) })
	rec.add("sim.traced_runs", 1)
	rec.add("sim.traced_steps", out.Steps)
	rec.add("sim.records", int64(c.Trace().Len()))
}

// codecProbe encodes a trace to FCT2, decodes it again and indexes it.
func codecProbe(t *trace.Trace, rec *recorder) error {
	var buf bytes.Buffer
	var err error
	probe(rec, "trace.encode", func() { err = t.Encode(&buf) })
	if err != nil {
		return err
	}
	rec.add("trace.records", int64(t.Len()))
	rec.add("trace.bytes", int64(buf.Len()))

	// With a collection just done and a trace of well under a megabyte, no
	// collection runs during the decode, so the heap growth is its peak.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var dt *trace.Trace
	allocs := probe(rec, "trace.decode", func() { dt, err = trace.Decode(bytes.NewReader(buf.Bytes())) })
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	rec.add("trace.decode_allocs", allocs)
	if grown := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grown > rec.counts["trace.decode_peak_heap_bytes"] {
		rec.counts["trace.decode_peak_heap_bytes"] = grown
	}

	rec.add("hb.allocs", probe(rec, "hb.build", func() { hb.New(dt) }))
	rec.add("hb.records", int64(dt.Len()))
	return nil
}

// campaignProbe takes the campaign engine apart on one item, sequentially:
// the fault space, a whole campaign, its plans alone through the executor,
// the corpus write and read paths, and the same campaign at full parallelism
// and through the coordinator at one and at cfg.workers workers.
func campaignProbe(cfg *config, it item, faultFree *trace.Trace, rec *recorder) error {
	var err error
	_, base := simRun(it.w, cfg.seed, sim.TraceOff)
	probe(rec, "campaign.space", func() { campaign.NewSpace(faultFree, base.Steps, it.w.CrashTarget(), 0) })
	rec.add("campaign.spaces", 1)

	var res *fcatch.CampaignResult
	seq := campaignConfig(cfg, 1)
	localAllocs := probe(rec, "campaign.run_p1", func() { res, err = fcatch.Campaign(it.w, seq) })
	if err != nil {
		return err
	}
	runs := int64(res.ExecutedRuns)
	rec.add("campaign.runs", runs)
	rec.add("campaign.novel", int64(res.NovelBehaviors))
	rec.add("campaign.failures", int64(res.FailureRuns))

	plans := make([]campaign.Plan, len(res.Corpus.Entries))
	for i, e := range res.Corpus.Entries {
		plans[i] = e.Plan
	}
	probe(rec, "campaign.exec", func() {
		_, err = campaign.ExecPlans(context.Background(), it.w, cfg.seed, campaign.StrategyTraced(seq.Strategy), 1, plans)
	})
	if err != nil {
		return err
	}

	path := filepath.Join(cfg.scratch, it.name+".corpus.json")
	probe(rec, "campaign.save", func() { err = res.Corpus.Save(path) })
	if err != nil {
		return err
	}
	var prior *fcatch.CampaignCorpus
	probe(rec, "campaign.load", func() { prior, err = fcatch.LoadCampaignCorpus(path) })
	if err != nil {
		return err
	}
	rec.add("campaign.entries", int64(len(prior.Entries)))
	var resumed *fcatch.CampaignResult
	probe(rec, "campaign.resume", func() { resumed, err = fcatch.ResumeCampaign(it.w, campaignConfig(cfg, 1), prior) })
	if err != nil {
		return err
	}
	rec.add("campaign.resumed_runs", int64(resumed.CachedRuns))

	probe(rec, "campaign.run_par", func() { _, err = fcatch.Campaign(it.w, campaignConfig(cfg, cfg.workers)) })
	if err != nil {
		return err
	}

	one := distOptions(1)
	one.Metrics = obs.New()
	distAllocs := probe(rec, "dist.run_w1", func() {
		_, err = fcatch.DistributedCampaign(context.Background(), it.w, campaignConfig(cfg, 1), one)
	})
	if err != nil {
		return err
	}
	rec.add("dist.allocs_over_local", distAllocs-localAllocs)
	rec.add("dist.leases", one.Metrics.Counter("dist/leases/granted").Value())
	rec.add("dist.requeues", one.Metrics.Counter("dist/leases/requeued").Value())
	probe(rec, "dist.run_wn", func() {
		_, err = fcatch.DistributedCampaign(context.Background(), it.w, campaignConfig(cfg, 1), distOptions(cfg.workers))
	})
	return err
}

// layerMetrics derives the per-layer metrics from the recorder: span time by
// name over the work counted at the same boundary.
func layerMetrics(cfg *config, rec *recorder) map[string]float64 {
	n := func(name string) float64 { return float64(rec.counts[name]) }
	t := rec.total
	candidates := n("detect.regular_candidates") + n("detect.recovery_candidates")
	var opEvaluation float64
	for _, it := range cfg.items {
		opEvaluation += t("op.evaluation." + it.name)
	}
	runs := n("campaign.runs")

	return map[string]float64{
		"sim.untraced_ns_per_step": ratio(t("sim.untraced"), n("sim.untraced_steps")),
		"sim.traced_ns_per_step":   ratio(t("sim.traced"), n("sim.traced_steps")),
		"sim.trace_overhead_x":     ratio(t("sim.traced"), t("sim.untraced")),
		"sim.steps_per_run":        ratio(n("sim.untraced_steps"), n("sim.untraced_runs")),
		"sim.records_per_run":      ratio(n("sim.records"), n("sim.traced_runs")),
		"sim.allocs_per_step":      ratio(n("sim.untraced_allocs"), n("sim.untraced_steps")),

		"trace.encode_ns_per_record":     ratio(t("trace.encode"), n("trace.records")),
		"trace.decode_ns_per_record":     ratio(t("trace.decode"), n("trace.records")),
		"trace.decode_allocs_per_record": ratio(n("trace.decode_allocs"), n("trace.records")),
		"trace.bytes_per_record":         ratio(n("trace.bytes"), n("trace.records")),
		"trace.decode_peak_heap_kb":      n("trace.decode_peak_heap_bytes") / 1024,

		"hb.build_ns_per_record":     ratio(t("hb.build"), n("hb.records")),
		"hb.build_allocs_per_record": ratio(n("hb.allocs"), n("hb.records")),

		"detect.regular_ns_per_candidate":  ratio(t("detect.regular"), n("detect.regular_candidates")),
		"detect.recovery_ns_per_candidate": ratio(t("detect.recovery"), n("detect.recovery_candidates")),
		"detect.candidates_per_pass":       ratio(candidates, n("detect.passes")),
		"detect.reports_per_pass":          ratio(n("detect.reports"), n("detect.passes")),
		"detect.kept_share":                ratio(n("detect.kept"), candidates),

		"core.observe_ms_per_pass":      ratio(t("core.observe"), n("core.passes")) / 1e6,
		"core.faulty_attempts_per_pass": ratio(n("core.faulty_attempts"), n("core.passes")),

		"inject.trigger_ms_per_report":  ratio(t("inject.trigger"), n("inject.reports")) / 1e6,
		"inject.trigger_ms_per_attempt": ratio(t("inject.trigger"), n("inject.attempts")) / 1e6,
		"inject.attempts_per_report":    ratio(n("inject.attempts"), n("inject.reports")),
		"inject.truebug_share":          ratio(n("inject.truebugs"), n("inject.reports")),
		"inject.share_of_op":            ratio(t("inject.trigger"), opEvaluation),

		"campaign.space_ms":                 ratio(t("campaign.space"), n("campaign.spaces")) / 1e6,
		"campaign.exec_ns_per_run":          ratio(t("campaign.exec"), runs),
		"campaign.engine_ns_per_run":        ratio(t("campaign.run_p1")-t("campaign.exec"), runs),
		"campaign.corpus_save_ns_per_entry": ratio(t("campaign.save"), n("campaign.entries")),
		"campaign.corpus_load_ns_per_entry": ratio(t("campaign.load"), n("campaign.entries")),
		"campaign.resume_ns_per_run":        ratio(t("campaign.resume"), n("campaign.resumed_runs")),
		"campaign.novel_share":              ratio(n("campaign.novel"), runs),
		"campaign.failure_share":            ratio(n("campaign.failures"), runs),

		"parallel.speedup_x": ratio(t("campaign.run_p1"), t("campaign.run_par")),

		"dist.overhead_ns_per_run":       ratio(t("dist.run_w1")-t("campaign.run_p1"), runs),
		"dist.vs_local_x":                ratio(t("dist.run_wn"), t("campaign.run_par")),
		"dist.speedup_x":                 ratio(t("dist.run_w1"), t("dist.run_wn")),
		"dist.allocs_per_run_over_local": ratio(n("dist.allocs_over_local"), runs),
		"dist.leases_per_run":            ratio(n("dist.leases"), runs),
		"dist.requeues":                  n("dist.requeues"),
	}
}
