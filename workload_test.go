package fcatch_test

import (
	"reflect"
	"slices"
	"testing"

	"fcatch"
	"fcatch/internal/sim"
)

// TestWorkloadProfiles pins each workload's Table 1 facts: its name resolves
// back to it, its crash target and restarted roles are processes its
// Configure starts, its restart map is one value every run shares, and Tune
// applies its simulator settings.
func TestWorkloadProfiles(t *testing.T) {
	type tuned struct {
		timeout  int64
		failFast bool
		maxSteps int64
	}
	want := map[string]tuned{
		"CA1&2": {500, true, 50_000},
		"HB1":   {600, true, 40_000},
		"HB2":   {600, true, 40_000},
		"MR1":   {0, true, 30_000},
		"MR2":   {0, true, 30_000},
		"ZK":    {500, true, 25_000},
		"TOY":   {0, false, 15_000},
	}
	expected := map[string][]string{"HB2": {"wait:rs-any-registered", "loop:waitServerCount"}}

	ws := append(fcatch.Workloads(), fcatch.MustWorkload("TOY"))
	if len(ws) != len(want) {
		t.Fatalf("%d workloads, want %d", len(ws), len(want))
	}
	for _, w := range ws {
		t.Run(w.Name(), func(t *testing.T) {
			if got, err := fcatch.ByName(w.Name()); err != nil || got.Name() != w.Name() {
				t.Fatalf("ByName(%q) = %v, %v", w.Name(), got, err)
			}
			var cfg sim.Config
			w.Tune(&cfg)
			if got := (tuned{cfg.RPCClientTimeout, cfg.RPCFailFast, cfg.MaxSteps}); got != want[w.Name()] {
				t.Errorf("Tune sets %+v, want %+v", got, want[w.Name()])
			}
			c := sim.NewCluster(cfg)
			w.Configure(c)
			if c.Lookup(w.CrashTarget()) == "" {
				t.Errorf("crash target %q is no process of the cluster", w.CrashTarget())
			}
			m := w.RestartRoles()
			for role := range m {
				if c.Lookup(role) == "" {
					t.Errorf("restarted role %q is no process of the cluster", role)
				}
			}
			if again := w.RestartRoles(); reflect.ValueOf(m).Pointer() != reflect.ValueOf(again).Pointer() {
				t.Error("RestartRoles builds a new map on each call; concurrent runs share one")
			}
			if got := w.ExpectedBehaviors(); !slices.Equal(got, expected[w.Name()]) {
				t.Errorf("ExpectedBehaviors = %q, want %q", got, expected[w.Name()])
			}
			c.Run() // ends the threads Configure started
		})
	}
}
