package detect

import (
	"testing"

	"fcatch/internal/hb"
	"fcatch/internal/trace"
)

func TestNormalizeRes(t *testing.T) {
	cases := map[string]string{
		"heap:am#1:Task2.commit":           "heap:Task#.commit",
		"heap:server#12:Obj34.field":       "heap:Obj#.field",
		"cv:hmaster#1:rs-report-a/3":       "cv:rs-report-a",
		"cv:worker#2:rpc-reply/17":         "cv:rpc-reply",
		"gfs:/staging/job1/split-2":        "gfs:/staging/job#/split-#",
		"zk:/hbase/replication/rs0#1/log1": "zk:/hbase/replication/rs###/log#",
		"lfs:m-zk0:/zk/data/currentEpoch":  "lfs:/zk/data/currentEpoch",
	}
	for in, want := range cases {
		if got := normalizeRes(in); got != want {
			t.Errorf("normalizeRes(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDedupKeepsFirstPerKey(t *testing.T) {
	a := &Report{Type: CrashRegular, W: OpSummary{Site: "w"}, R: OpSummary{Site: "r"}, ResClass: "cv:x"}
	b := &Report{Type: CrashRegular, W: OpSummary{Site: "w"}, R: OpSummary{Site: "r"}, ResClass: "cv:x", Workload: "other"}
	c := &Report{Type: CrashRecovery, W: OpSummary{Site: "w"}, R: OpSummary{Site: "r"}, ResClass: "cv:x"}
	got := Dedup([]*Report{a, b, c})
	if len(got) != 2 || got[0] != a || got[1] != c {
		t.Fatalf("Dedup = %v", got)
	}
}

// --- Crash-regular detector on synthetic traces. ---

// regularTrace builds: node B waits on a CV; node B's handler (caused by a
// message from node A) signals it.
func regularTrace(timedWait bool) *trace.Trace {
	tr := trace.New()
	aStart := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("a#1"), Thread: 1, Causor: trace.NoOp})
	bStart := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("b#1"), Thread: 2, Causor: trace.NoOp})
	var flags uint32
	if timedWait {
		flags = trace.FlagTimedWait
	}
	tr.Append(trace.Record{Kind: trace.KWait, PID: tr.Intern("b#1"), Thread: 2, Frame: bStart,
		Res: tr.Intern("cv:b#1:ready/5"), Aux: tr.Intern("ready"), Flags: flags, Site: tr.Intern("b.go:10"), TS: 10})
	send := tr.Append(trace.Record{Kind: trace.KMsgSend, PID: tr.Intern("a#1"), Thread: 1, Frame: aStart,
		Target: tr.Intern("b#1"), Aux: tr.Intern("go"), Site: tr.Intern("a.go:5"), TS: 12})
	hBegin := tr.Append(trace.Record{Kind: trace.KHandlerBegin, PID: tr.Intern("b#1"), Thread: 3, Frame: bStart, Causor: send})
	tr.Append(trace.Record{Kind: trace.KSignal, PID: tr.Intern("b#1"), Thread: 3, Frame: hBegin,
		Res: tr.Intern("cv:b#1:ready/5"), Aux: tr.Intern("ready"), Site: tr.Intern("b.go:20"), TS: 15})
	return tr
}

func TestDetectRegularSignalWait(t *testing.T) {
	res := DetectRegularOpts(hb.New(regularTrace(false)), "wl", Options{})
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(res.Reports))
	}
	r := res.Reports[0]
	if r.OpsDesc != "Signal vs Wait" || r.ResClass != "cv:ready" {
		t.Fatalf("report = %s", r)
	}
	if r.WPrime == nil || r.WPrime.Site != "a.go:5" || r.WPrime.PID != "a#1" {
		t.Fatalf("W' = %+v, want the remote send", r.WPrime)
	}
	if res.Pruned.WaitTimeout != 0 {
		t.Fatalf("pruned = %+v", res.Pruned)
	}
}

func TestDetectRegularPrunesTimedWaits(t *testing.T) {
	res := DetectRegularOpts(hb.New(regularTrace(true)), "wl", Options{})
	if len(res.Reports) != 0 || res.Pruned.WaitTimeout != 1 {
		t.Fatalf("timed wait not pruned: reports=%d pruned=%+v", len(res.Reports), res.Pruned)
	}
}

func TestDetectRegularIgnoresLocalSignals(t *testing.T) {
	// The signal comes from a plain local thread: no fault can remove it.
	tr := trace.New()
	bStart := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("b#1"), Thread: 1, Causor: trace.NoOp})
	tr.Append(trace.Record{Kind: trace.KWait, PID: tr.Intern("b#1"), Thread: 1, Frame: bStart,
		Res: tr.Intern("cv:b#1:x/1"), Site: tr.Intern("b.go:1"), TS: 5})
	spawn := tr.Append(trace.Record{Kind: trace.KThreadCreate, PID: tr.Intern("b#1"), Thread: 1, Frame: bStart})
	tStart := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("b#1"), Thread: 2, Causor: spawn})
	tr.Append(trace.Record{Kind: trace.KSignal, PID: tr.Intern("b#1"), Thread: 2, Frame: tStart,
		Res: tr.Intern("cv:b#1:x/1"), Site: tr.Intern("b.go:2"), TS: 9})
	res := DetectRegularOpts(hb.New(tr), "wl", Options{})
	if len(res.Reports) != 0 {
		t.Fatalf("local signal reported: %v", res.Reports[0])
	}
}

func TestDetectRegularWaitNeedsLaterSignal(t *testing.T) {
	// Signal strictly before the wait: the pairing rule finds nothing.
	tr := trace.New()
	aStart := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("a#1"), Thread: 1, Causor: trace.NoOp})
	bStart := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("b#1"), Thread: 2, Causor: trace.NoOp})
	send := tr.Append(trace.Record{Kind: trace.KMsgSend, PID: tr.Intern("a#1"), Thread: 1, Frame: aStart, Target: tr.Intern("b#1"), Site: tr.Intern("a.go:1"), TS: 2})
	hBegin := tr.Append(trace.Record{Kind: trace.KHandlerBegin, PID: tr.Intern("b#1"), Thread: 3, Frame: bStart, Causor: send})
	tr.Append(trace.Record{Kind: trace.KSignal, PID: tr.Intern("b#1"), Thread: 3, Frame: hBegin, Res: tr.Intern("cv:b#1:x/1"), Site: tr.Intern("b.go:2"), TS: 3})
	tr.Append(trace.Record{Kind: trace.KWait, PID: tr.Intern("b#1"), Thread: 2, Frame: bStart, Res: tr.Intern("cv:b#1:x/1"), Site: tr.Intern("b.go:1"), TS: 8})
	res := DetectRegularOpts(hb.New(tr), "wl", Options{})
	if len(res.Reports) != 0 {
		t.Fatalf("signal-before-wait wrongly paired: %v", res.Reports[0])
	}
}

// loopTrace builds a custom-loop-signal scenario: a handler (caused by a
// remote message) writes the flag a sync loop's final read consumes.
func loopTrace(timeInExit bool) *trace.Trace {
	tr := trace.New()
	aStart := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("a#1"), Thread: 1, Causor: trace.NoOp})
	bStart := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("b#1"), Thread: 2, Causor: trace.NoOp})
	tr.Append(trace.Record{Kind: trace.KLoopEnter, PID: tr.Intern("b#1"), Thread: 2, Frame: bStart, Aux: tr.Intern("poll")})
	send := tr.Append(trace.Record{Kind: trace.KMsgSend, PID: tr.Intern("a#1"), Thread: 1, Frame: aStart, Target: tr.Intern("b#1"), Site: tr.Intern("a.go:9"), TS: 4})
	hBegin := tr.Append(trace.Record{Kind: trace.KHandlerBegin, PID: tr.Intern("b#1"), Thread: 3, Frame: bStart, Causor: send})
	w := tr.Append(trace.Record{Kind: trace.KHeapWrite, PID: tr.Intern("b#1"), Thread: 3, Frame: hBegin,
		Res: tr.Intern("heap:b#1:o.flag"), Site: tr.Intern("b.go:30"), TS: 6})
	read := tr.Append(trace.Record{Kind: trace.KLoopRead, PID: tr.Intern("b#1"), Thread: 2, Frame: bStart,
		Res: tr.Intern("heap:b#1:o.flag"), Src: w, Site: tr.Intern("b.go:40"), TS: 8})
	taints := []trace.OpID{read}
	if timeInExit {
		tm := tr.Append(trace.Record{Kind: trace.KTimeRead, PID: tr.Intern("b#1"), Thread: 2, Frame: bStart, TS: 9})
		taints = append(taints, tm)
	}
	tr.Append(trace.Record{Kind: trace.KLoopExit, PID: tr.Intern("b#1"), Thread: 2, Frame: bStart,
		Aux: tr.Intern("poll"), Taint: taints, TS: 10})
	return tr
}

func TestDetectRegularLoopSignal(t *testing.T) {
	res := DetectRegularOpts(hb.New(loopTrace(false)), "wl", Options{})
	if len(res.Reports) != 1 || res.Reports[0].OpsDesc != "Write vs Loop" {
		t.Fatalf("reports = %v", res.Reports)
	}
	if res.Reports[0].WPrime.Site != "a.go:9" {
		t.Fatalf("W' = %+v", res.Reports[0].WPrime)
	}
}

func TestDetectRegularPrunesTimeBoundedLoops(t *testing.T) {
	res := DetectRegularOpts(hb.New(loopTrace(true)), "wl", Options{})
	if len(res.Reports) != 0 || res.Pruned.LoopTimeout != 1 {
		t.Fatalf("time-bounded loop not pruned: %+v", res.Pruned)
	}
}

// --- Crash-recovery detector on synthetic checkpoint pairs. ---

// recoveryPair builds a fault-free trace where the crash node writes a
// znode, and a faulty trace where a recovery process reads it and the value
// reaches a message send (impact).
func recoveryPair(withReset, withSanity, withImpact bool) (ff, fy *trace.Trace) {
	ff = trace.New()
	ffStart := ff.Append(trace.Record{Kind: trace.KThreadStart, PID: ff.Intern("crash#1"), Thread: 1, Causor: trace.NoOp})
	ff.Append(trace.Record{Kind: trace.KKVUpdate, PID: ff.Intern("crash#1"), Thread: 1, Frame: ffStart,
		Res: ff.Intern("zk:/state"), Aux: ff.Intern("set"), Site: ff.Intern("c.go:5"), TS: 3})
	ff.PIDs = []string{"crash#1"}

	fy = trace.New()
	fy.CrashedPID = "crash#1"
	fy.CrashStep = 10
	fyStart := fy.Append(trace.Record{Kind: trace.KThreadStart, PID: fy.Intern("crash#1"), Thread: 1, Causor: trace.NoOp})
	_ = fyStart
	recStart := fy.Append(trace.Record{Kind: trace.KThreadStart, PID: fy.Intern("rec#2"), Thread: 2, Causor: trace.NoOp})
	if withReset {
		fy.Append(trace.Record{Kind: trace.KKVUpdate, PID: fy.Intern("rec#2"), Thread: 2, Frame: recStart,
			Res: fy.Intern("zk:/state"), Aux: fy.Intern("set"), Site: fy.Intern("r.go:3"), TS: 12})
	}
	var sanityID trace.OpID
	if withSanity {
		sanityID = fy.Append(trace.Record{Kind: trace.KStExists, PID: fy.Intern("rec#2"), Thread: 2, Frame: recStart,
			Res: fy.Intern("zk:/state"), Site: fy.Intern("r.go:5"), TS: 13})
	}
	readRec := trace.Record{Kind: trace.KStRead, PID: fy.Intern("rec#2"), Thread: 2, Frame: recStart,
		Res: fy.Intern("zk:/state"), Site: fy.Intern("r.go:10"), TS: 14}
	if withSanity {
		readRec.Ctl = []trace.OpID{sanityID}
	}
	read := fy.Append(readRec)
	if withImpact {
		fy.Append(trace.Record{Kind: trace.KMsgSend, PID: fy.Intern("rec#2"), Thread: 2, Frame: recStart,
			Target: fy.Intern("other#1"), Taint: []trace.OpID{read}, Site: fy.Intern("r.go:12"), TS: 16})
	}
	fy.PIDs = []string{"crash#1", "rec#2"}
	return ff, fy
}

func TestDetectRecoveryFindsConflictingPair(t *testing.T) {
	ff, fy := recoveryPair(false, false, true)
	res := DetectRecoveryOpts(hb.New(ff), hb.New(fy), "wl", Options{})
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d (%+v)", len(res.Reports), res.Pruned)
	}
	r := res.Reports[0]
	if r.Type != CrashRecovery || r.W.Site != "c.go:5" || r.R.Site != "r.go:10" {
		t.Fatalf("report = %s", r)
	}
	if r.WInFaultyRun {
		t.Fatal("W only exists in the fault-free run; trigger must be crash-after")
	}
	if len(res.RecoveryPIDs) != 1 || res.RecoveryPIDs[0] != "rec#2" {
		t.Fatalf("recovery pids = %v", res.RecoveryPIDs)
	}
}

func TestDetectRecoveryResetPruning(t *testing.T) {
	ff, fy := recoveryPair(true, false, true)
	res := DetectRecoveryOpts(hb.New(ff), hb.New(fy), "wl", Options{})
	if len(res.Reports) != 0 || res.Pruned.Dependence == 0 {
		t.Fatalf("reset-protected read not pruned: %d reports, %+v", len(res.Reports), res.Pruned)
	}
}

func TestDetectRecoverySanityCheckPruning(t *testing.T) {
	ff, fy := recoveryPair(false, true, true)
	res := DetectRecoveryOpts(hb.New(ff), hb.New(fy), "wl", Options{})
	// The guarded read (R2) is pruned; the sanity check itself (R1, the
	// exists probe) still pairs and has no impact — pruned by impact.
	for _, r := range res.Reports {
		if r.R.Site == "r.go:10" {
			t.Fatalf("sanity-checked read still reported: %s", r)
		}
	}
	if res.Pruned.Dependence == 0 {
		t.Fatalf("no dependence pruning recorded: %+v", res.Pruned)
	}
}

func TestDetectRecoveryImpactPruning(t *testing.T) {
	ff, fy := recoveryPair(false, false, false)
	res := DetectRecoveryOpts(hb.New(ff), hb.New(fy), "wl", Options{})
	if len(res.Reports) != 0 || res.Pruned.Impact == 0 {
		t.Fatalf("impact-free read not pruned: %d reports, %+v", len(res.Reports), res.Pruned)
	}
}

func TestDetectRecoveryIgnoresCrashNodeHeap(t *testing.T) {
	ff := trace.New()
	s := ff.Append(trace.Record{Kind: trace.KThreadStart, PID: ff.Intern("crash#1"), Thread: 1, Causor: trace.NoOp})
	ff.Append(trace.Record{Kind: trace.KHeapWrite, PID: ff.Intern("crash#1"), Thread: 1, Frame: s,
		Res: ff.Intern("heap:crash#1:o.f"), Site: ff.Intern("c.go:1"), TS: 2})
	ff.PIDs = []string{"crash#1"}

	fy := trace.New()
	fy.CrashedPID = "crash#1"
	fy.CrashStep = 5
	fy.Append(trace.Record{Kind: trace.KThreadStart, PID: fy.Intern("crash#1"), Thread: 1, Causor: trace.NoOp})
	rs := fy.Append(trace.Record{Kind: trace.KThreadStart, PID: fy.Intern("rec#2"), Thread: 2, Causor: trace.NoOp})
	read := fy.Append(trace.Record{Kind: trace.KHeapRead, PID: fy.Intern("rec#2"), Thread: 2, Frame: rs,
		Res: fy.Intern("heap:crash#1:o.f"), Site: fy.Intern("r.go:1"), TS: 7})
	fy.Append(trace.Record{Kind: trace.KMsgSend, PID: fy.Intern("rec#2"), Thread: 2, Frame: rs,
		Target: fy.Intern("x#1"), Taint: []trace.OpID{read}, TS: 8})
	fy.PIDs = []string{"crash#1", "rec#2"}

	res := DetectRecoveryOpts(hb.New(ff), hb.New(fy), "wl", Options{})
	if len(res.Reports) != 0 {
		t.Fatalf("heap on the crashed node must be ignored (it is wiped): %v", res.Reports[0])
	}
}

func TestDetectRecoveryNoCrashNoReports(t *testing.T) {
	ff, _ := recoveryPair(false, false, true)
	res := DetectRecoveryOpts(hb.New(ff), hb.New(ff), "wl", Options{})
	if len(res.Reports) != 0 {
		t.Fatal("fault-free pair produced crash-recovery reports")
	}
}

func TestSiteIndexSkipsCrashRecords(t *testing.T) {
	tr := trace.New()
	s := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("p#1"), Thread: 1, Causor: trace.NoOp})
	tr.Append(trace.Record{Kind: trace.KCrash, PID: tr.Intern("system"), Site: tr.Intern("x.go:1")})
	op := tr.Append(trace.Record{Kind: trace.KHeapWrite, PID: tr.Intern("p#1"), Thread: 1, Frame: s, Res: tr.Intern("heap:p#1:o.f"), Site: tr.Intern("x.go:1")})
	ix := trace.BuildIndex(tr)
	if got := occurrence(ix, tr.At(op)); got != 1 {
		t.Fatalf("occurrence = %d, want 1 (crash bookkeeping must not count)", got)
	}
}
