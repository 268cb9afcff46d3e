package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json repeats these tables;
// bench_test.go fails when the two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: the share by which it may worsen
}

// endToEnd are the metrics a user of the tool sees, measured with tracing
// off, each with the bound beyond which a change counts as a regression. The
// time bounds are as wide as a bound may be: on the shared two-core host the
// same binary's timings spread by 5 to 10 % between runs (quartile to
// quartile, over ten runs), and a bound must be three times its spread. The
// allocation metrics repeat to 0.02 % and are the sharp ones.
// fail_share is printed too but is not listed: it is 0 on a healthy run and a
// relative bound on 0 means nothing. The result line carries it as
// failed/attempted, where any failure is a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"runs_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"sweep_ms_p50", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_kb_per_op", "KB", "lower", 0.02},
}

// perLayer are the single-layer metrics of the traced run. Each is followed
// in README.md by the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{Name: "sim.untraced_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "sim.traced_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "sim.trace_overhead_x", Unit: "x", Better: "lower"},
	{Name: "sim.steps_per_run", Unit: "count", Better: "lower"},
	{Name: "sim.records_per_run", Unit: "count", Better: "lower"},
	{Name: "sim.allocs_per_step", Unit: "count", Better: "lower"},

	{Name: "trace.encode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.decode_allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "trace.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "trace.decode_peak_heap_kb", Unit: "KB", Better: "lower"},

	{Name: "hb.build_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "hb.build_allocs_per_record", Unit: "count", Better: "lower"},

	{Name: "detect.regular_ns_per_candidate", Unit: "ns", Better: "lower"},
	{Name: "detect.recovery_ns_per_candidate", Unit: "ns", Better: "lower"},
	{Name: "detect.candidates_per_pass", Unit: "count", Better: "lower"},
	{Name: "detect.reports_per_pass", Unit: "count", Better: "higher"},
	{Name: "detect.kept_share", Unit: "share", Better: "higher"},

	{Name: "core.observe_ms_per_pass", Unit: "ms", Better: "lower"},
	{Name: "core.faulty_attempts_per_pass", Unit: "count", Better: "lower"},

	{Name: "inject.trigger_ms_per_report", Unit: "ms", Better: "lower"},
	{Name: "inject.trigger_ms_per_attempt", Unit: "ms", Better: "lower"},
	{Name: "inject.attempts_per_report", Unit: "count", Better: "lower"},
	{Name: "inject.truebug_share", Unit: "share", Better: "higher"},
	{Name: "inject.share_of_op", Unit: "share", Better: "lower"},

	{Name: "campaign.space_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.exec_ns_per_run", Unit: "ns", Better: "lower"},
	{Name: "campaign.engine_ns_per_run", Unit: "ns", Better: "lower"},
	{Name: "campaign.corpus_save_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "campaign.corpus_load_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "campaign.resume_ns_per_run", Unit: "ns", Better: "lower"},
	{Name: "campaign.novel_share", Unit: "share", Better: "higher"},
	{Name: "campaign.failure_share", Unit: "share", Better: "higher"},

	{Name: "parallel.speedup_x", Unit: "x", Better: "higher"},

	{Name: "dist.overhead_ns_per_run", Unit: "ns", Better: "lower"},
	{Name: "dist.vs_local_x", Unit: "x", Better: "lower"},
	{Name: "dist.speedup_x", Unit: "x", Better: "higher"},
	{Name: "dist.allocs_per_run_over_local", Unit: "count", Better: "lower"},
	{Name: "dist.leases_per_run", Unit: "count", Better: "lower"},
	{Name: "dist.requeues", Unit: "count", Better: "lower"},

	{Name: "item.CA12.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "item.HB1.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "item.HB2.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "item.MR1.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "item.MR2.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "item.ZK.op_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "bench.trace_overhead_x", Unit: "x", Better: "higher"},
}

// quantile returns the q-quantile (0 < q <= 1) of the samples by nearest rank.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(math.Ceil(q*float64(len(s))))-1]
}

// ratio is a/b, and 0 when there was no work to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
