package fcatch_test

// Golden pinning for the interning refactor: the detection reports and the
// campaign corpora of all six benchmark workloads are rendered to
// testdata/golden/ and must stay byte-identical across internal trace-model
// changes. The goldens were generated with the pre-refactor (string-keyed)
// pipeline; regenerate deliberately with `go test -run TestGolden -update`
// only when an intentional behavior change is being made.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fcatch"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files")

// goldenName sanitizes a workload name for use as a file name ("CA1&2" -> "CA1_2").
func goldenName(wl string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, wl)
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from golden (len got=%d want=%d)\n--- got ---\n%s\n--- want ---\n%s",
			path, len(got), len(want), truncate(string(got)), truncate(string(want)))
	}
}

func truncate(s string) string {
	if len(s) > 4000 {
		return s[:4000] + "\n...[truncated]"
	}
	return s
}

// prunedLine renders both detectors' tallies in the goldens' layout, one
// {LoopTimeout WaitTimeout Dependence Impact} group per detector, with
// dependence pruning the sanity-check and reset rules together.
func prunedLine(res *fcatch.Result) string {
	group := func(t detect.Tally) string {
		return fmt.Sprintf("{LoopTimeout:%d WaitTimeout:%d Dependence:%d Impact:%d}",
			t.Of(detect.RuleLoopTimeout), t.Of(detect.RuleWaitTimeout),
			t.Of(detect.RuleSanityCheck)+t.Of(detect.RuleReset), t.Of(detect.RuleImpact))
	}
	return "pruned regular=" + group(res.Regular.Tally) + " recovery=" + group(res.Recovery.Tally) + "\n"
}

// TestGoldenDetectionReports pins every workload's full detection output —
// report lines, summaries, prune counters, crash metadata — against goldens
// generated before the symbol-interning refactor.
func TestGoldenDetectionReports(t *testing.T) {
	for _, w := range fcatch.Workloads() {
		t.Run(w.Name(), func(t *testing.T) {
			opts := core.Options{Seed: 1, Phase: fcatch.PhaseBegin, Tracing: sim.TraceSelective, Parallelism: 1}
			res, err := fcatch.Detect(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "workload=%s crash=%s step=%d records=%d+%d\n",
				w.Name(), res.Windows[0].Victim, res.Windows[0].Step,
				res.Observation.FaultFree.Len(), res.Observation.Faulty.Len())
			b.WriteString(prunedLine(res))
			for i, r := range res.Reports {
				wp := "-"
				if r.WPrime != nil {
					wp = fmt.Sprintf("%+v", *r.WPrime)
				}
				fmt.Fprintf(&b, "%2d. %s\n    W=%+v\n    R=%+v\n    W'=%s inFaulty=%v target=%s/%s res=%s class=%s\n",
					i+1, r, r.W, r.R, wp, r.WInFaultyRun, r.CrashTargetPID, r.CrashTargetRole, r.Resource, r.ResClass)
			}
			checkGolden(t, filepath.Join("testdata", "golden", goldenName(w.Name())+".reports.txt"), []byte(b.String()))
		})
	}
}

// TestGoldenCampaignCorpora pins the coverage-guided campaign corpus —
// including every plan, signature (outcome, symptom, coverage hash), verdict,
// and novelty stamp — for each workload against pre-refactor goldens. The
// corpus JSON is exactly what Corpus.Save writes.
func TestGoldenCampaignCorpora(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign goldens are slow")
	}
	for _, w := range fcatch.Workloads() {
		t.Run(w.Name(), func(t *testing.T) {
			cfg := fcatch.CampaignConfig{Strategy: fcatch.StrategyCoverage, Seed: 1, Budget: 40, Parallelism: 1}
			res, err := fcatch.Campaign(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.MarshalIndent(res.Corpus, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, '\n')
			checkGolden(t, filepath.Join("testdata", "golden", goldenName(w.Name())+".corpus.json"), data)
		})
	}
}
