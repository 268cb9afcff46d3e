package detect

import (
	"reflect"
	"testing"

	"fcatch/internal/hb"
	"fcatch/internal/trace"
)

// windowedTrace builds a rolling-crash trace: am#1 crashes at 100, its
// incarnation am#2 restarts at 120 and crashes at 150, am#3 restarts at 160
// and runs a recovery read at 200 (the trace end).
func windowedTrace() *trace.Trace {
	tr := trace.New()
	s := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("am#1"), Thread: 1, Causor: trace.NoOp, TS: 1})
	tr.Append(trace.Record{Kind: trace.KCrash, PID: tr.Intern("system"), Aux: tr.Intern("am#1"), TS: 100})
	tr.Append(trace.Record{Kind: trace.KRestart, PID: tr.Intern("system"), Aux: tr.Intern("am#2"), TS: 120})
	rs := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("am#2"), Thread: 2, Causor: trace.NoOp, TS: 121})
	tr.Append(trace.Record{Kind: trace.KStRead, PID: tr.Intern("am#2"), Thread: 2, Frame: rs,
		Res: tr.Intern("zk:/job"), Site: tr.Intern("rec.go:4"), TS: 130})
	tr.Append(trace.Record{Kind: trace.KCrash, PID: tr.Intern("system"), Aux: tr.Intern("am#2"), TS: 150})
	tr.Append(trace.Record{Kind: trace.KRestart, PID: tr.Intern("system"), Aux: tr.Intern("am#3"), TS: 160})
	rs3 := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("am#3"), Thread: 3, Causor: trace.NoOp, TS: 161})
	tr.Append(trace.Record{Kind: trace.KStRead, PID: tr.Intern("am#3"), Thread: 3, Frame: rs3,
		Res: tr.Intern("zk:/job"), Site: tr.Intern("rec.go:4"), TS: 200})
	_ = s
	tr.CrashedPID, tr.CrashStep = "am#1", 100
	return tr
}

// TestWindowContains: the open edge is exclusive (the fault's own step is
// not "inside" its window), the close edge inclusive (a fault killing the
// window's recovery node fires exactly at CloseStep).
func TestWindowContains(t *testing.T) {
	w := Window{OpenStep: 100, CloseStep: 150}
	for step, want := range map[int64]bool{99: false, 100: false, 101: true, 150: true, 151: false} {
		if got := w.Contains(step); got != want {
			t.Errorf("Contains(%d) = %v, want %v", step, got, want)
		}
	}
}

// TestDeriveWindows: firings lower to windows in order; the crash window of
// a victim whose incarnation also crashed closes at that second crash (the
// rolling-crash shape); drop firings open drop-induced windows spanning to
// the trace end; firings that hit nothing open no window.
func TestDeriveWindows(t *testing.T) {
	ty := windowedTrace()
	firings := []trace.FaultFiring{
		{Index: 0, Action: "node-crash", Step: 100, Victim: "am#1"},
		{Index: 1, Action: "node-crash", Step: 150, Victim: "am#2"},
		{Index: 2, Action: "kernel-drop", Step: 170, Site: "a.go:5", Occurrence: 1, When: "before", Victim: "rs#1"},
		{Index: 3, Action: "node-crash", Step: 180, Victim: ""}, // missed
	}
	wins := DeriveWindows(ty, firings)
	if len(wins) != 3 {
		t.Fatalf("windows = %d, want 3", len(wins))
	}
	w0 := wins[0]
	if w0.ID != 0 || w0.Kind != WindowCrashRecovery || w0.Victim != "am#1" ||
		w0.Incarnation != "am#2" || w0.OpenStep != 100 || w0.CloseStep != 150 {
		t.Fatalf("w0 = %s (inc %q)", &w0, w0.Incarnation)
	}
	w1 := wins[1]
	if w1.Victim != "am#2" || w1.Incarnation != "am#3" || w1.CloseStep != 200 {
		t.Fatalf("w1 = %s (inc %q): am#3 never crashed, so the window runs to trace end", &w1, w1.Incarnation)
	}
	w2 := wins[2]
	if w2.Kind != WindowDropInduced || w2.Victim != "rs#1" || w2.OpenSite != "a.go:5" ||
		w2.OpenOcc != 1 || w2.OpenWhen != "before" || w2.CloseStep != 200 {
		t.Fatalf("w2 = %s (site %q occ %d when %q)", &w2, w2.OpenSite, w2.OpenOcc, w2.OpenWhen)
	}
	if w2.FaultIndex != 2 {
		t.Fatalf("w2 fault index = %d, want 2 (the missed firing keeps scenario indices)", w2.FaultIndex)
	}
}

// TestResolveWindowsLadder: explicit windows win over firings, and the two
// rungs below them — a victim list, a bare trace — are not constructors of
// their own: each equals DeriveWindows on the node-crash firings the trace's
// crash records vouch for, so a saved-trace analysis sees the same
// incarnation, restart and close fields a live observation does.
func TestResolveWindowsLadder(t *testing.T) {
	ty := windowedTrace()

	explicit := []Window{{ID: 0, Victim: "custom", OpenStep: 7, CloseStep: 9}}
	got := resolveWindows(ty, &Options{Windows: explicit, Firings: []trace.FaultFiring{{Victim: "am#1", Step: 100}}})
	if len(got) != 1 || got[0].Victim != "custom" {
		t.Fatalf("explicit windows ignored: %v", got)
	}

	first := trace.FaultFiring{Index: 0, Action: "node-crash", Step: 100, Victim: "am#1"}
	second := trace.FaultFiring{Index: 1, Action: "node-crash", Step: 150, Victim: "am#2"}

	got = resolveWindows(ty, &Options{Firings: []trace.FaultFiring{first}})
	if len(got) != 1 || got[0].Victim != "am#1" || got[0].CloseStep != 150 {
		t.Fatalf("firing lowering = %v", got)
	}

	got = resolveWindows(ty, &Options{CrashedPIDs: []string{"am#1", "", "am#2"}})
	if want := DeriveWindows(ty, []trace.FaultFiring{first, second}); !reflect.DeepEqual(got, want) {
		t.Fatalf("victim-list rung = %v, want DeriveWindows' %v", got, want)
	}

	// The bare trace: one window for its first recorded crash, recovery
	// fields included.
	got = resolveWindows(ty, &Options{})
	if want := DeriveWindows(ty, []trace.FaultFiring{first}); !reflect.DeepEqual(got, want) {
		t.Fatalf("bare-trace rung = %v, want DeriveWindows' %v", got, want)
	}
	if len(got) != 1 || got[0].Action != "node-crash" || got[0].Incarnation != "am#2" ||
		got[0].RestartStep != 120 || got[0].CloseStep != 150 {
		t.Fatalf("bare-trace window = %+v", got)
	}

	// A victim the trace has no crash record for opens at the trace's
	// recorded crash step.
	got = resolveWindows(ty, &Options{CrashedPIDs: []string{"rs#1"}})
	if len(got) != 1 || got[0].OpenStep != ty.CrashStep || got[0].Incarnation != "" {
		t.Fatalf("unrecorded victim = %+v", got)
	}

	empty := trace.New()
	if got = resolveWindows(empty, &Options{}); got != nil {
		t.Fatalf("no crash, no windows; got %v", got)
	}
}

func TestNextIncarnation(t *testing.T) {
	cases := map[string]string{"am#1": "am#2", "rs#9": "rs#10", "system": "", "am#x": ""}
	for in, want := range cases {
		if got := nextIncarnation(in); got != want {
			t.Errorf("nextIncarnation(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestDetectCompoundPairsContainedWindows: the second crash fired at the
// first window's close step (inside, close edge inclusive) → one compound
// report naming both anchors and the orphaned recovery read. A later window
// opened after the first closed pairs with the second window only.
func TestDetectCompoundPairsContainedWindows(t *testing.T) {
	ty := windowedTrace()
	gy := hb.New(ty)
	wins := DeriveWindows(ty, []trace.FaultFiring{
		{Index: 0, Action: "node-crash", Step: 100, Victim: "am#1"},
		{Index: 1, Action: "node-crash", Step: 150, Victim: "am#2"},
	})
	reps := DetectCompound(gy, wins, "wl")
	if len(reps) != 1 {
		t.Fatalf("compound reports = %d, want 1", len(reps))
	}
	c := reps[0]
	if c.Outer.ID != 0 || c.Inner.ID != 1 || c.Workload != "wl" {
		t.Fatalf("pairing = outer w%d inner w%d", c.Outer.ID, c.Inner.ID)
	}
	// The orphaned evidence is am#2's recovery read at 130 — the last
	// resource op of the outer recovery before the inner fault.
	if c.Orphaned.Op == 0 || c.Orphaned.Site != "rec.go:4" || c.Orphaned.PID != "am#2" {
		t.Fatalf("orphaned = %+v", c.Orphaned)
	}
	if c.Key() == "" || c.String() == "" {
		t.Fatal("empty key/render")
	}
}

// TestDetectCompoundDisjointWindows: a fault that fires after the first
// window already closed is not a compound finding.
func TestDetectCompoundDisjointWindows(t *testing.T) {
	ty := windowedTrace()
	gy := hb.New(ty)
	wins := []Window{
		{ID: 0, Kind: WindowCrashRecovery, Victim: "am#1", OpenStep: 100, CloseStep: 140},
		{ID: 1, Kind: WindowCrashRecovery, Victim: "rs#1", OpenStep: 170, CloseStep: 200},
	}
	if reps := DetectCompound(gy, wins, "wl"); len(reps) != 0 {
		t.Fatalf("disjoint windows produced %d compound reports", len(reps))
	}
	// Single-window observations never produce compound reports.
	if reps := DetectCompound(gy, wins[:1], "wl"); reps != nil {
		t.Fatalf("single window produced %v", reps)
	}
	// Drop windows open no recovery: a fault inside one is not compound.
	drop := []Window{
		{ID: 0, Kind: WindowDropInduced, Victim: "rs#1", OpenStep: 100, CloseStep: 200},
		{ID: 1, Kind: WindowCrashRecovery, Victim: "am#1", OpenStep: 150, CloseStep: 200},
	}
	if reps := DetectCompound(gy, drop, "wl"); len(reps) != 0 {
		t.Fatalf("drop outer window produced %d compound reports", len(reps))
	}
}
