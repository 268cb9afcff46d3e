package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// tinyConfig sweeps ZK alone, the cheapest item, with a small campaign budget
// and one warm-up sweep, so the whole file runs in a few seconds under -race.
// Nothing here asserts a time.
func tinyConfig(t *testing.T) *config {
	cfg := &config{seed: 1, order: rand.New(rand.NewSource(1)), seconds: 0.01, workers: 2, budget: 6, warmup: 1, scratch: t.TempDir()}
	for _, it := range allItems() {
		if it.name == "ZK" {
			cfg.items = append(cfg.items, it)
		}
	}
	return cfg
}

func mustExpected(t *testing.T) *expected {
	exp, err := parseExpected(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables the
// benchmark prints from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: json %+v, code {%s %s}", i, spec.Workloads[i], wl.name, wl.why)
		}
		if !nameRE.MatchString(wl.name) {
			t.Errorf("workload name %q is not a legal name", wl.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q is not a legal name", d.Name)
		}
	}
}

// TestEveryWorkloadEmitsEveryEndToEndMetric runs each workload untraced.
func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	cfg, exp := tinyConfig(t), mustExpected(t)
	for i := range workloads {
		wl := &workloads[i]
		res, err := measure(cfg, wl, exp)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", wl.name, res.failed, res.attempted)
		}
		for _, d := range endToEnd {
			if v, ok := res.metrics[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", wl.name, d.Name, v)
			}
		}
	}
}

// countMetrics are ratios of exact counts: the simulator is deterministic, so
// two runs must report the same value to the last digit. (The byte and
// allocation counts are left out: an encoded trace carries the run's
// wall-clock time as a varint, and the runtime allocates in the background.)
var countMetrics = []string{
	"sim.steps_per_run", "sim.records_per_run",
	"detect.candidates_per_pass", "detect.reports_per_pass", "detect.kept_share",
	"core.faulty_attempts_per_pass", "inject.attempts_per_report", "inject.truebug_share",
	"campaign.novel_share", "campaign.failure_share", "dist.leases_per_run", "dist.requeues",
}

// TestTracedRun runs the traced pass on two workloads and checks the names it
// emits, that the count metrics repeat exactly, and that the spans nest.
func TestTracedRun(t *testing.T) {
	cfg, exp := tinyConfig(t), mustExpected(t)
	var runs []*result
	for _, name := range []string{"predict", "dist"} {
		wl, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, rec, err := measureTraced(cfg, wl, exp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d of %d ops failed", name, res.failed, res.attempted)
		}
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, "item.") && d.Name != "item.ZK.op_ms_p50" {
				continue // tinyConfig sweeps ZK only
			}
			if _, ok := res.metrics[d.Name]; !ok {
				t.Errorf("%s: %s not emitted", name, d.Name)
			}
		}
		for m := range res.metrics {
			if !nameRE.MatchString(m) {
				t.Errorf("%s: emitted name %q is not a legal name", name, m)
			}
		}
		if err := checkNesting(rec.spans); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		runs = append(runs, res)
	}
	for _, m := range countMetrics {
		if a, b := runs[0].metrics[m], runs[1].metrics[m]; a != b {
			t.Errorf("%s: %v in one run, %v in the other", m, a, b)
		}
	}
}

func TestCheckNestingRejectsBrokenTrees(t *testing.T) {
	for name, spans := range map[string][]span{
		"child outlives parent": {{Name: "p", Op: 1, Parent: -1, Start: 0, End: 10}, {Name: "c", Op: 1, Parent: 0, Start: 5, End: 11}},
		"children overlap":      {{Name: "p", Op: 1, Parent: -1, Start: 0, End: 10}, {Name: "a", Op: 1, Parent: 0, Start: 0, End: 8}, {Name: "b", Op: 1, Parent: 0, Start: 4, End: 10}},
		"op id changes":         {{Name: "p", Op: 1, Parent: -1, Start: 0, End: 10}, {Name: "c", Op: 2, Parent: 0, Start: 1, End: 2}},
	} {
		if checkNesting(spans) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCheckerRejectsTamperedExpected edits one pinned answer and expects every
// op on that item to fail, and an unknown key to be refused outright.
func TestCheckerRejectsTamperedExpected(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.budget = campaignBudget // the seed-1 answers are pinned at this budget
	wl, _ := workloadByName("predict")

	good := newChecker(mustExpected(t), cfg, wl)
	sweep(cfg, wl, nil, good, nil, nil)
	if good.failed != 0 {
		t.Fatalf("untampered: %d of %d ops failed", good.failed, good.attempted)
	}

	tampered := bytes.Replace(expectedJSON, []byte(`"recovery_reports": 3`), []byte(`"recovery_reports": 4`), -1)
	if bytes.Equal(tampered, expectedJSON) {
		t.Fatal("tampering changed nothing")
	}
	exp, err := parseExpected(tampered)
	if err != nil {
		t.Fatal(err)
	}
	bad := newChecker(exp, cfg, wl)
	sweep(cfg, wl, nil, bad, nil, nil)
	if bad.failed != bad.attempted || bad.attempted == 0 {
		t.Errorf("tampered: %d of %d ops failed, want all", bad.failed, bad.attempted)
	}

	if _, err := parseExpected(bytes.Replace(expectedJSON, []byte(`"table3"`), []byte(`"table4"`), 1)); err == nil {
		t.Error("unknown key accepted")
	}
}
