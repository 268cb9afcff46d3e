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
	if res.Tally.Of(RuleWaitTimeout) != 0 {
		t.Fatalf("tally = %v", res.Tally)
	}
}

func TestDetectRegularPrunesTimedWaits(t *testing.T) {
	res := DetectRegularOpts(hb.New(regularTrace(true)), "wl", Options{})
	if len(res.Reports) != 0 || res.Tally.Of(RuleWaitTimeout) != 1 {
		t.Fatalf("timed wait not pruned: reports=%d tally=%v", len(res.Reports), res.Tally)
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
	if len(res.Reports) != 0 || res.Tally.Of(RuleLoopTimeout) != 1 {
		t.Fatalf("time-bounded loop not pruned: %v", res.Tally)
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

	fy = trace.New()
	fy.Append(trace.Record{Kind: trace.KThreadStart, PID: fy.Intern("crash#1"), Thread: 1, Causor: trace.NoOp})
	fy.Append(trace.Record{Kind: trace.KCrash, PID: fy.Intern("system"), Aux: fy.Intern("crash#1"), TS: 10})
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
	return ff, fy
}

// detectRecovery runs the crash-recovery detector on a saved-trace pair: the
// windows are the ones the faulty trace's crash records vouch for.
func detectRecovery(ff, fy *trace.Trace) *RecoveryResult {
	return DetectRecoveryOpts(hb.New(ff), hb.New(fy), "wl", Options{Windows: ObservationWindows(fy, Options{})})
}

func TestDetectRecoveryFindsConflictingPair(t *testing.T) {
	ff, fy := recoveryPair(false, false, true)
	res := detectRecovery(ff, fy)
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d (%v)", len(res.Reports), res.Tally)
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
	res := detectRecovery(ff, fy)
	if len(res.Reports) != 0 || res.Tally.Of(RuleReset) == 0 {
		t.Fatalf("reset-protected read not pruned: %d reports, %v", len(res.Reports), res.Tally)
	}
}

func TestDetectRecoverySanityCheckPruning(t *testing.T) {
	ff, fy := recoveryPair(false, true, true)
	res := detectRecovery(ff, fy)
	// The guarded read (R2) is pruned; the sanity check itself (R1, the
	// exists probe) still pairs and has no impact — pruned by impact.
	for _, r := range res.Reports {
		if r.R.Site == "r.go:10" {
			t.Fatalf("sanity-checked read still reported: %s", r)
		}
	}
	if res.Tally.Of(RuleSanityCheck) == 0 {
		t.Fatalf("no sanity-check pruning recorded: %v", res.Tally)
	}
}

func TestDetectRecoveryImpactPruning(t *testing.T) {
	ff, fy := recoveryPair(false, false, false)
	res := detectRecovery(ff, fy)
	if len(res.Reports) != 0 || res.Tally.Of(RuleImpact) == 0 {
		t.Fatalf("impact-free read not pruned: %d reports, %v", len(res.Reports), res.Tally)
	}
}

func TestDetectRecoveryIgnoresCrashNodeHeap(t *testing.T) {
	ff := trace.New()
	s := ff.Append(trace.Record{Kind: trace.KThreadStart, PID: ff.Intern("crash#1"), Thread: 1, Causor: trace.NoOp})
	ff.Append(trace.Record{Kind: trace.KHeapWrite, PID: ff.Intern("crash#1"), Thread: 1, Frame: s,
		Res: ff.Intern("heap:crash#1:o.f"), Site: ff.Intern("c.go:1"), TS: 2})

	fy := trace.New()
	fy.Append(trace.Record{Kind: trace.KThreadStart, PID: fy.Intern("crash#1"), Thread: 1, Causor: trace.NoOp})
	fy.Append(trace.Record{Kind: trace.KCrash, PID: fy.Intern("system"), Aux: fy.Intern("crash#1"), TS: 5})
	rs := fy.Append(trace.Record{Kind: trace.KThreadStart, PID: fy.Intern("rec#2"), Thread: 2, Causor: trace.NoOp})
	read := fy.Append(trace.Record{Kind: trace.KHeapRead, PID: fy.Intern("rec#2"), Thread: 2, Frame: rs,
		Res: fy.Intern("heap:crash#1:o.f"), Site: fy.Intern("r.go:1"), TS: 7})
	fy.Append(trace.Record{Kind: trace.KMsgSend, PID: fy.Intern("rec#2"), Thread: 2, Frame: rs,
		Target: fy.Intern("x#1"), Taint: []trace.OpID{read}, TS: 8})

	res := detectRecovery(ff, fy)
	if len(res.Reports) != 0 {
		t.Fatalf("heap on the crashed node must be ignored (it is wiped): %v", res.Reports[0])
	}
}

// TestDetectRecoveryCrashWrites pins which writes the crash-recovery
// detector pairs with a later recovery read of the same resource, for both
// crash-write sources: a victim of the fault-free run (crash#1) and an
// incarnation victim (am#2, absent from the fault-free run, whose window
// opens at step 20). W is written by the victim itself, by other#1 handling
// a message the victim sent (remote), or by other#1 on its own (unrelated).
func TestDetectRecoveryCrashWrites(t *testing.T) {
	cases := []struct {
		name        string
		incarnation bool
		by          string // "victim", "remote" or "unrelated"
		kind        trace.Kind
		res         string
		ts          int64
		flags       uint32
		pairs       int
	}{
		{"own persistent write", false, "victim", trace.KStWrite, "gfs:/f", 5, 0, 1},
		{"own failed write", false, "victim", trace.KStWrite, "gfs:/f", 5, trace.FlagFailed, 0},
		{"remote heap write", false, "remote", trace.KHeapWrite, "heap:other#1:o.f", 5, 0, 1},
		{"unrelated write", false, "unrelated", trace.KStWrite, "gfs:/f", 5, 0, 0},
		{"incarnation own write", true, "victim", trace.KStWrite, "gfs:/f", 10, 0, 1},
		{"incarnation remote write before window", true, "remote", trace.KHeapWrite, "heap:other#1:o.f", 15, 0, 1},
		{"incarnation remote write after window", true, "remote", trace.KHeapWrite, "heap:other#1:o.f", 25, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// threads appends victim's and other#1's thread starts, then W.
			threads := func(tr *trace.Trace, victim string) {
				vs := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern(victim), Thread: 1, Causor: trace.NoOp, TS: 1})
				ots := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("other#1"), Thread: 2, Causor: trace.NoOp, TS: 1})
				w := trace.Record{Kind: c.kind, PID: tr.Intern(victim), Thread: 1, Frame: vs,
					Res: tr.Intern(c.res), Flags: c.flags, Site: tr.Intern("w.go:1"), TS: c.ts}
				switch c.by {
				case "remote":
					send := tr.Append(trace.Record{Kind: trace.KMsgSend, PID: tr.Intern(victim), Thread: 1, Frame: vs,
						Target: tr.Intern("other#1"), Site: tr.Intern("v.go:2"), TS: 2})
					h := tr.Append(trace.Record{Kind: trace.KHandlerBegin, PID: tr.Intern("other#1"), Thread: 3, Frame: ots, Causor: send, TS: 3})
					w.PID, w.Thread, w.Frame = tr.Intern("other#1"), 3, h
				case "unrelated":
					w.PID, w.Thread, w.Frame = tr.Intern("other#1"), 2, ots
				}
				tr.Append(w)
			}
			ff, fy := trace.New(), trace.New()
			var opts Options
			if c.incarnation {
				ff.Append(trace.Record{Kind: trace.KThreadStart, PID: ff.Intern("am#1"), Thread: 1, Causor: trace.NoOp})
				ff.Append(trace.Record{Kind: trace.KThreadStart, PID: ff.Intern("other#1"), Thread: 2, Causor: trace.NoOp})
				threads(fy, "am#2")
				opts.Windows = []Window{{FaultFiring: trace.FaultFiring{Action: "node-crash", Victim: "am#2", Step: 20}}}
			} else {
				threads(ff, "crash#1")
				fy.Append(trace.Record{Kind: trace.KThreadStart, PID: fy.Intern("crash#1"), Thread: 1, Causor: trace.NoOp, TS: 1})
				fy.Append(trace.Record{Kind: trace.KCrash, PID: fy.Intern("system"), Aux: fy.Intern("crash#1"), TS: 10})
			}
			read := trace.KStRead
			if c.kind == trace.KHeapWrite {
				read = trace.KHeapRead
			}
			rs := fy.Append(trace.Record{Kind: trace.KThreadStart, PID: fy.Intern("rec#3"), Thread: 4, Causor: trace.NoOp, TS: 30})
			fy.Append(trace.Record{Kind: read, PID: fy.Intern("rec#3"), Thread: 4, Frame: rs,
				Res: fy.Intern(c.res), Site: fy.Intern("r.go:1"), TS: 32})
			if !c.incarnation {
				opts.Windows = ObservationWindows(fy, Options{})
			}

			res := DetectRecoveryOpts(hb.New(ff), hb.New(fy), "wl", opts)
			pairs := 0
			for _, n := range res.Tally {
				pairs += n
			}
			if pairs != c.pairs {
				t.Fatalf("conflicting pairs = %d, want %d (tally %v)", pairs, c.pairs, res.Tally)
			}
		})
	}
}

func TestDetectRecoveryNoCrashNoReports(t *testing.T) {
	ff, _ := recoveryPair(false, false, true)
	res := detectRecovery(ff, ff)
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
