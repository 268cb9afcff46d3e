package fcatch_test

// The concurrency layer's contract: any Parallelism setting produces
// byte-identical output. Every unit of parallel work (a workload's detection
// pass, a report's trigger replay, a campaign run) owns its simulated cluster
// and writes into its own result slot, so the schedule can change only *when*
// work happens, never *what* comes out.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"fcatch"
	"fcatch/internal/core"
	"fcatch/internal/sim"
)

// evalFingerprint renders everything deterministic about an evaluation:
// the Table 2/3/5 rows, the trigger matrix, and per workload the full report
// list, prune counters, and trigger verdicts. Table 4 is wall-clock and
// intentionally excluded.
func evalFingerprint(e *fcatch.EvalRun) string {
	var b strings.Builder
	b.WriteString(e.RenderTable2())
	b.WriteString(e.RenderTable3())
	b.WriteString(e.RenderTable5())
	b.WriteString(e.RenderTriggerMatrix())
	for _, wl := range e.Order {
		res := e.Results[wl]
		fmt.Fprintf(&b, "== %s crash=%s step=%d\n", wl, res.Windows[0].Victim, res.Windows[0].Step)
		b.WriteString(prunedLine(res))
		for _, r := range res.Reports {
			wp := "-"
			if r.WPrime != nil {
				wp = fmt.Sprintf("%+v", *r.WPrime)
			}
			fmt.Fprintf(&b, "report %s | W=%+v R=%+v W'=%s inFaulty=%v target=%s/%s\n",
				r, r.W, r.R, wp, r.WInFaultyRun, r.CrashTargetPID, r.CrashTargetRole)
		}
		for _, out := range e.Outcomes[wl] {
			actions := make([]string, 0, len(out.ByAction))
			for a, hit := range out.ByAction {
				actions = append(actions, fmt.Sprintf("%s=%v", a, hit))
			}
			sort.Strings(actions)
			fmt.Fprintf(&b, "outcome %s %s [%s] %s | %s\n",
				out.Report.Key(), out.Class, strings.Join(actions, " "), out.FailureKind, out.Detail)
		}
	}
	return b.String()
}

func TestParallelEvaluationParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		opts := core.Options{Seed: seed, Phase: fcatch.PhaseBegin, Tracing: sim.TraceSelective}

		opts.Parallelism = 1
		seq, err := fcatch.RunEvaluation(opts)
		if err != nil {
			t.Fatalf("seed %d sequential: %v", seed, err)
		}
		opts.Parallelism = 8
		par, err := fcatch.RunEvaluation(opts)
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}

		fpSeq, fpPar := evalFingerprint(seq), evalFingerprint(par)
		if fpSeq != fpPar {
			line := firstDiffLine(fpSeq, fpPar)
			t.Errorf("seed %d: parallel evaluation diverges from sequential:\n  seq: %s\n  par: %s", seed, line[0], line[1])
		}
	}
}

func TestParallelRandomInjectionParity(t *testing.T) {
	w := fcatch.MustWorkload("TOY")
	cfg := fcatch.CampaignConfig{Strategy: fcatch.StrategyRandom, Seed: 1, Budget: 60, Parallelism: 1}
	seq, err := fcatch.Campaign(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	par, err := fcatch.Campaign(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.FailureRuns != par.FailureRuns {
		t.Errorf("FailureRuns: seq=%d par=%d", seq.FailureRuns, par.FailureRuns)
	}
	if fmt.Sprint(seq.Signatures()) != fmt.Sprint(par.Signatures()) {
		t.Errorf("signatures diverge:\n  seq: %v\n  par: %v", seq.Signatures(), par.Signatures())
	}
	for sig, n := range seq.Failures {
		if par.Failures[sig] != n {
			t.Errorf("signature %q: seq=%d par=%d", sig, n, par.Failures[sig])
		}
	}
}

// firstDiffLine locates the first differing line of two renderings.
func firstDiffLine(a, b string) [2]string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return [2]string{la[i], lb[i]}
		}
	}
	return [2]string{fmt.Sprintf("<%d lines>", len(la)), fmt.Sprintf("<%d lines>", len(lb))}
}
