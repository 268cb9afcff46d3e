package fcatch_test

import (
	"testing"

	"fcatch"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// TestCrashRecordIsTheCrash pins what lets a trace state its crash only as a
// record: under the default scenario, at seeds 1–10 on every workload, the
// faulty trace's first crash record names the same victim and step as the
// observation's first node-crash firing and as hazard window 0, and every
// victim the observation lists has a crash record of its own.
func TestCrashRecordIsTheCrash(t *testing.T) {
	for _, w := range fcatch.Workloads() {
		t.Run(w.Name(), func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				opts := fcatch.DefaultOptions()
				opts.Seed, opts.Parallelism = seed, 1
				res, err := fcatch.Detect(w, opts)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				obs, ty := res.Observation, res.Observation.Faulty
				crashed := map[string]bool{}
				var first *trace.Record
				for _, r := range ty.Filter(trace.Query{Kinds: []trace.Kind{trace.KCrash}}) {
					if first == nil {
						first = r
					}
					crashed[ty.Str(r.Aux)] = true
				}
				var firing *trace.FaultFiring
				for i, f := range obs.FaultFirings {
					if f.Action == sim.ActionNodeCrash && f.Victim != "" {
						firing = &obs.FaultFirings[i]
						break
					}
				}
				if first == nil || firing == nil || len(res.Windows) == 0 {
					t.Fatalf("seed %d: crash record %v, node-crash firing %v, %d windows", seed, first, firing, len(res.Windows))
				}
				victim, w0 := ty.Str(first.Aux), res.Windows[0]
				if victim != firing.Victim || first.TS != firing.Step {
					t.Errorf("seed %d: crash record %s@%d, first node-crash firing %s@%d", seed, victim, first.TS, firing.Victim, firing.Step)
				}
				if victim != w0.Victim || first.TS != w0.Step {
					t.Errorf("seed %d: crash record %s@%d, window 0 %s@%d", seed, victim, first.TS, w0.Victim, w0.Step)
				}
				for _, pid := range obs.CrashedPIDs {
					if !crashed[pid] {
						t.Errorf("seed %d: observation victim %s has no crash record", seed, pid)
					}
				}
			}
		})
	}
}
