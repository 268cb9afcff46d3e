package apps_test

import (
	"strings"
	"testing"

	"fcatch/internal/apps/cassandra"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/inject"
	"fcatch/internal/sim"
)

func find(reports []*detect.Report, typ detect.BugType, classHint string) *detect.Report {
	for _, r := range reports {
		if r.Type == typ && strings.Contains(r.ResClass, classHint) {
			return r
		}
	}
	return nil
}

func TestCassandraFaultFreeRun(t *testing.T) {
	c, out := core.Run(cassandra.New(), sim.Config{Seed: 1})
	if out.Failed() {
		t.Fatalf("fault-free: %s: %s", out.FailureKind(), out.Detail())
	}
	if c.FactStr("ca.repair") != "done" {
		t.Fatalf("repair state = %q", c.FactStr("ca.repair"))
	}
}

func TestCassandraDetection(t *testing.T) {
	res, err := core.Detect(cassandra.New(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		hint, ops, name string
	}{
		{"cv:snapshots-done", "Signal vs Wait", "CA1"},
		{"cv:trees-done", "Signal vs Wait", "CA2"},
		{"pendingStreams", "Write vs Loop", "CA3"},
	} {
		r := find(res.Reports, detect.CrashRegular, c.hint)
		if r == nil {
			t.Errorf("%s not reported", c.name)
			continue
		}
		if r.OpsDesc != c.ops {
			t.Errorf("%s ops = %q, want %q", c.name, r.OpsDesc, c.ops)
		}
		// Each repair reply is a droppable message from a neighbour node.
		if r.WPrime == nil || !strings.HasPrefix(r.WPrime.PID, "cass") {
			t.Errorf("%s W' = %+v", c.name, r.WPrime)
		}
	}
	// The restarted node's local-disk reads are the two benign recovery
	// candidates of Table 3's CA row.
	benignCandidates := 0
	for _, r := range res.Reports {
		if r.Type == detect.CrashRecovery {
			benignCandidates++
		}
	}
	if benignCandidates != 2 {
		t.Errorf("crash-recovery reports = %d, want 2", benignCandidates)
	}
}

func TestCassandraTriggerMatrix(t *testing.T) {
	w := cassandra.New()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tg := inject.NewTriggerer(w, 1)

	// CA1/CA2: message drops hang the repair; node crashes are absorbed by
	// the convict listener (Section 8.4).
	for _, hint := range []string{"cv:snapshots-done", "cv:trees-done"} {
		out := tg.Trigger(find(res.Reports, detect.CrashRegular, hint))
		if out.Class != inject.TrueBug {
			t.Errorf("%s verdict = %v", hint, out.Class)
		}
		if out.ByAction["node-crash"] {
			t.Errorf("%s: a node crash must be tolerated (convict aborts the session)", hint)
		}
		if !out.ByAction["kernel-drop"] || !out.ByAction["app-drop"] {
			t.Errorf("%s: message drops must trigger the hang: %v", hint, out.ByAction)
		}
	}

	// CA3: the convict listener forgot the streaming phase, so even the
	// crash hangs it.
	out := tg.Trigger(find(res.Reports, detect.CrashRegular, "pendingStreams"))
	if !out.ByAction["node-crash"] || !out.ByAction["kernel-drop"] {
		t.Errorf("CA3 matrix = %v, want crash and drops", out.ByAction)
	}

	// The local-file recovery reads are benign.
	for _, r := range res.Reports {
		if r.Type == detect.CrashRecovery {
			if v := tg.Trigger(r); v.Class != inject.Benign {
				t.Errorf("%s verdict = %v, want benign", r.ResClass, v.Class)
			}
		}
	}
}

func TestCassandraExhaustiveTracingKillsGossip(t *testing.T) {
	w := cassandra.New()
	run := func(mode sim.TracingMode, cost int64) *sim.Outcome {
		_, out := core.Run(w, sim.Config{Seed: 1, Tracing: mode, TraceTickCost: cost})
		return out
	}
	if out := run(sim.TraceSelective, 1); out.Failed() {
		t.Fatalf("selective tracing must be survivable: %s: %s", out.FailureKind(), out.Detail())
	}
	out := run(sim.TraceExhaustive, 6)
	if !out.Failed() {
		t.Fatal("exhaustive tracing should make the failure detector convict a live node (§8.2)")
	}
	if out.FailureKind() != "check" || !strings.Contains(out.Detail(), "convicted a live node") {
		t.Fatalf("unexpected exhaustive failure: %s: %s", out.FailureKind(), out.Detail())
	}
}
