package hbase_test

import (
	"strings"
	"testing"

	"fcatch/internal/apps/hbase"
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

func TestFaultFreeRuns(t *testing.T) {
	for _, w := range []*hbase.Workload{hbase.NewHB1(), hbase.NewHB2()} {
		if _, out := core.Run(w, sim.Config{Seed: 1}); out.Failed() {
			t.Errorf("%s fault-free: %s: %s", w.Name(), out.FailureKind(), out.Detail())
		}
	}
}

func TestHB1WorkloadDetection(t *testing.T) {
	res, err := core.Detect(hbase.NewHB1(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hb1 := find(res.Reports, detect.CrashRegular, "rit#.meta")
	if hb1 == nil {
		t.Fatal("HB1 (Figure 6 RIT poll) not reported")
	}
	if hb1.OpsDesc != "Write vs Loop" {
		t.Errorf("HB1 ops = %q", hb1.OpsDesc)
	}
	if hb1.WPrime == nil || !strings.HasPrefix(hb1.WPrime.PID, "rs") {
		t.Errorf("HB1 W' should live on a RegionServer: %+v", hb1.WPrime)
	}
	// The master-restart recovery path yields the four handled-exception
	// candidates and the two benign ones.
	var rec int
	for _, r := range res.Reports {
		if r.Type == detect.CrashRecovery {
			rec++
		}
	}
	if rec != 6 {
		t.Errorf("HB1 crash-recovery reports = %d, want 6 (4 Exp + 2 benign)", rec)
	}
	// Timeout pruning: 6 app rounds + 1 RPC wait; 3 deadline-bounded loops.
	if reg := res.Regular.Tally; reg.Of(detect.RuleWaitTimeout) != 7 || reg.Of(detect.RuleLoopTimeout) != 3 {
		t.Errorf("tally = %v, want wait-timeout=7 loop-timeout=3", reg)
	}
}

func TestHB1TriggerMatrixIsCrashOnly(t *testing.T) {
	w := hbase.NewHB1()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hb1 := find(res.Reports, detect.CrashRegular, "rit#.meta")
	out := inject.NewTriggerer(w, 1).Trigger(hb1)
	if out.Class != inject.TrueBug {
		t.Fatalf("HB1 verdict = %v (%s)", out.Class, out.Detail)
	}
	// Section 8.4: the OPENED update travels through ZooKeeper; only a node
	// crash removes it.
	if !out.ByAction["node-crash"] || out.ByAction["kernel-drop"] || out.ByAction["app-drop"] {
		t.Fatalf("HB1 trigger matrix = %v, want node-crash only", out.ByAction)
	}
}

func TestHB1ExpFalsePositivesAreHandledExceptions(t *testing.T) {
	w := hbase.NewHB1()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tg := inject.NewTriggerer(w, 1)
	expected, benign := 0, 0
	for _, r := range res.Reports {
		if r.Type != detect.CrashRecovery {
			continue
		}
		switch tg.Trigger(r).Class {
		case inject.Expected:
			expected++
		case inject.Benign:
			benign++
		default:
			t.Errorf("unexpected true bug in HB1 recovery reports: %s", r)
		}
	}
	if expected != 4 || benign != 2 {
		t.Fatalf("HB1 recovery verdicts: %d Exp + %d benign, want 4 + 2 (Table 3)", expected, benign)
	}
}

func TestHB1CrashRegularFalsePositivesAreBenign(t *testing.T) {
	w := hbase.NewHB1()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tg := inject.NewTriggerer(w, 1)
	for _, hint := range []string{"cv:logSplitDone", "nsRemote", "ack-special"} {
		r := find(res.Reports, detect.CrashRegular, hint)
		if r == nil {
			t.Errorf("planted FP %s not reported", hint)
			continue
		}
		if out := tg.Trigger(r); out.Class != inject.Benign {
			t.Errorf("%s: verdict %v, want benign (a watcher component rescues the hang)", hint, out.Class)
		}
	}
}

func TestHB2WorkloadDetection(t *testing.T) {
	res, err := core.Detect(hbase.NewHB2(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		typ        detect.BugType
		hint, name string
	}{
		{detect.CrashRegular, "cv:root-assigned", "HB3"},
		{detect.CrashRegular, "rootLoc", "HB4"},
		{detect.CrashRecovery, "splitlog", "HB2"},
		{detect.CrashRecovery, "replication/rs###/log#", "HB5"},
	} {
		if find(res.Reports, c.typ, c.hint) == nil {
			t.Errorf("%s (%s) not reported", c.name, c.hint)
		}
	}
	// HB6: the queue-directory marker pair (Delete vs Read).
	hb6 := false
	for _, r := range res.Reports {
		if r.Type == detect.CrashRecovery && strings.HasSuffix(r.ResClass, "replication/rs###") &&
			strings.HasPrefix(r.OpsDesc, "Delete") {
			hb6 = true
		}
	}
	if !hb6 {
		t.Error("HB6 (queue dir deleted early) not reported")
	}
}

func TestHB2ExpectedRegistrationHang(t *testing.T) {
	w := hbase.NewHB2()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tg := inject.NewTriggerer(w, 1)
	for _, hint := range []string{"cv:rs-any-registered", "serverCount"} {
		r := find(res.Reports, detect.CrashRegular, hint)
		if r == nil {
			t.Fatalf("registration candidate %s missing", hint)
		}
		if out := tg.Trigger(r); out.Class != inject.Expected {
			t.Errorf("%s: verdict %v, want Expected (waiting for a live RS is intended)", hint, out.Class)
		}
	}
}

func TestHB2DataLossBugsConfirmed(t *testing.T) {
	w := hbase.NewHB2()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tg := inject.NewTriggerer(w, 1)
	trueBugs := 0
	for _, r := range res.Reports {
		if r.Type != detect.CrashRecovery {
			continue
		}
		out := tg.Trigger(r)
		if out.Class == inject.TrueBug {
			trueBugs++
			if out.FailureKind != "check" {
				t.Errorf("%s: failure kind %q, want a data-loss check failure", r.ResClass, out.FailureKind)
			}
			if !strings.Contains(out.Detail, "data loss") {
				t.Errorf("%s: detail %q does not mention data loss", r.ResClass, out.Detail)
			}
		}
	}
	if trueBugs != 3 {
		t.Fatalf("confirmed HB2-workload recovery bugs = %d, want 3 (HB2, HB5, HB6)", trueBugs)
	}
}

func TestHB3TriggersWithBothCrashAndDrop(t *testing.T) {
	w := hbase.NewHB2()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hb3 := find(res.Reports, detect.CrashRegular, "cv:root-assigned")
	out := inject.NewTriggerer(w, 1).Trigger(hb3)
	if !out.ByAction["node-crash"] || !out.ByAction["kernel-drop"] {
		t.Fatalf("HB3 matrix = %v; §8.4 says both crashes and drops work here", out.ByAction)
	}
}
