package fcatch_test

import (
	"strings"
	"testing"

	"fcatch"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/inject"
	"fcatch/internal/sim"
)

// twoCrashes crashes the workload's crash target, restarts it, and crashes
// the fresh incarnation during its recovery: the observation shape that
// yields reports from a later hazard window on CA1&2 and ZK.
const twoCrashes = "step=120,restart=40;delay=100,restart=40"

// TestTriggerReplaysEarlierWindows pins that fcatch.Trigger replays a
// later-window report inside the faults that opened the windows before it:
// each such report's verdict must describe the run that injects
// fcatch.TriggerScenario(rep, res.Windows) — the scenario `fcatch repro` and
// `-scenario` pasting replay — not the report's own fault alone. On ZK the
// w1 currentEpoch report is a fatal true bug with the prefix and benign
// without it.
func TestTriggerReplaysEarlierWindows(t *testing.T) {
	sc, err := fcatch.ParseScenario(twoCrashes)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"CA1&2", "ZK"} {
		t.Run(name, func(t *testing.T) {
			w := fcatch.MustWorkload(name)
			opts := fcatch.DefaultOptions()
			opts.Scenario = sc
			res, err := fcatch.Detect(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			outs := fcatch.Trigger(w, res)
			later, epoch := 0, false
			for i, rep := range res.Reports {
				if rep.WindowID == 0 {
					continue
				}
				later++
				got := outs[i]
				cfg := sim.Config{
					Seed: opts.Seed, Tracing: sim.TraceSelective, TraceTickCost: core.TraceTickCost(sim.TraceSelective),
					Plan: sim.NewScenarioPlan(fcatch.TriggerScenario(rep, res.Windows), w.RestartRoles()),
				}
				_, out := core.Run(w, cfg)
				want := ""
				if out.Failed() {
					want = out.FailureKind()
				}
				gotKind := strings.TrimPrefix(got.FailureKind, "expected-")
				if gotKind == "handled-exception" {
					gotKind = "" // a handled exception is a run that completed
				}
				if gotKind != want {
					t.Errorf("w%d %s: Trigger says %v/%q, replaying %s fails with %q (\"\" = the run is correct)",
						rep.WindowID, rep, got.Class, got.FailureKind, fcatch.FormatScenario(fcatch.TriggerScenario(rep, res.Windows)), want)
				}
				if strings.Contains(rep.ResClass, "currentEpoch") && rep.Type == detect.CrashRecovery {
					epoch = true
					if got.Class != inject.TrueBug || got.FailureKind != "fatal" {
						t.Errorf("w%d %s: Trigger says %v/%q, want true-bug/fatal", rep.WindowID, rep, got.Class, got.FailureKind)
					}
				}
			}
			if later == 0 {
				t.Fatalf("%s under %q yields no later-window report", name, twoCrashes)
			}
			if name == "ZK" && !epoch {
				t.Fatalf("ZK under %q yields no later-window currentEpoch report", twoCrashes)
			}
		})
	}
}
