package inject

import (
	"context"
	"errors"
	"testing"

	"fcatch/internal/apps/hbase"
	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/toy"
	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/sim"
)

func TestClassificationOrdering(t *testing.T) {
	// The strongest verdict across fault kinds must win.
	if !(TrueBug < Expected && Expected < Benign) {
		t.Fatal("classification severity order broken")
	}
	if TrueBug.String() != "true-bug" || Expected.String() != "expected" || Benign.String() != "benign" {
		t.Fatal("classification names broken")
	}
}

func TestTriggerAllPreservesOrder(t *testing.T) {
	w := toy.New()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tg := NewTriggerer(w, 1)
	outs := tg.TriggerAll(res.Reports)
	if len(outs) != len(res.Reports) {
		t.Fatalf("outcomes = %d, reports = %d", len(outs), len(res.Reports))
	}
	for i := range outs {
		if outs[i].Report != res.Reports[i] {
			t.Fatal("outcome order diverges from report order")
		}
	}
}

func TestTriggerCrashRegularTriesAllThreeFaults(t *testing.T) {
	w := toy.New()
	res, err := core.Detect(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tg := NewTriggerer(w, 1)
	for _, r := range res.Reports {
		out := tg.Trigger(r)
		if r.Type == detect.CrashRegular {
			for _, k := range []string{"node-crash", "kernel-drop", "app-drop"} {
				if _, ok := out.ByAction[k]; !ok {
					t.Errorf("crash-regular report missing %s attempt", k)
				}
			}
		} else {
			if _, ok := out.ByAction["node-crash"]; !ok || len(out.ByAction) != 1 {
				t.Errorf("crash-recovery report should try exactly a node crash: %v", out.ByAction)
			}
		}
	}
}

func TestTriggerWithoutWPrimeIsBenign(t *testing.T) {
	w := toy.New()
	tg := NewTriggerer(w, 1)
	out := tg.Trigger(&detect.Report{Type: detect.CrashRegular})
	if out.Class != Benign {
		t.Fatalf("report without W' classified %v", out.Class)
	}
}

func TestRandomCampaignDeterministic(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyRandom, Seed: 7, Budget: 25}
	a, err := campaign.Run(context.Background(), toy.New(), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign.Run(context.Background(), toy.New(), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.FailureRuns != b.FailureRuns || len(a.Failures) != len(b.Failures) {
		t.Fatalf("campaign not deterministic: %v vs %v", a.Failures, b.Failures)
	}
}

func TestRandomResultSignaturesSorted(t *testing.T) {
	r := &campaign.Result{Failures: map[string]int{"b": 2, "a": 2, "c": 9}}
	got := r.Signatures()
	if len(got) != 3 || got[0] != "c" || got[1] != "a" || got[2] != "b" {
		t.Fatalf("signatures = %v, want frequency desc then lexicographic", got)
	}
	if r.UniqueFailures() != 3 {
		t.Fatal("UniqueFailures wrong")
	}
}

// outcomeWorkload is a one-node system that ends every run in one chosen
// failure class, whatever is injected. The worse classes also show the
// milder ones' evidence — an exception run logs a fatal and leaves a thread
// hung — so the class a caller names is decided by precedence, not by which
// evidence happens to be present. Its Check would fail every class but
// "ok", and it counts the runs it was tuned for and the checks it was asked
// for.
type outcomeWorkload struct {
	*toy.Workload
	class        string
	expected     []string
	runs, checks int
}

func (w *outcomeWorkload) ExpectedBehaviors() []string { return w.expected }

func (w *outcomeWorkload) Tune(cfg *sim.Config) {
	w.runs++
	w.Workload.Tune(cfg)
}

func (w *outcomeWorkload) Configure(c *sim.Cluster) {
	c.StartProcess("worker", "m1", func(ctx *sim.Context) {
		if w.class == "exception" || w.class == "fatal" {
			ctx.LogFatal("disk gone")
		}
		if w.class == "exception" || w.class == "fatal" || w.class == "hang" {
			ctx.Go("stuck", func(ctx *sim.Context) { ctx.NamedCond("never").Wait(ctx) })
		}
		if w.class == "exception" {
			ctx.Throw("IllegalState")
		}
	})
}

func (w *outcomeWorkload) Check(c *sim.Cluster) error {
	w.checks++
	if w.class != "ok" {
		return errors.New("result lost")
	}
	return nil
}

// TestOneFailurePrecedenceTable: trigger classification and campaign
// signatures both name the class sim.Outcome.FailureKind returns — for every
// class, as a true bug and as an expected reaction — and core.Run asks the
// workload's Check exactly once per run that ended cleanly ("check" and
// "ok") and never for one the outcome already failed.
func TestOneFailurePrecedenceTable(t *testing.T) {
	for _, class := range []string{"exception", "fatal", "hang", "check", "ok"} {
		for _, expected := range []bool{false, true} {
			w := &outcomeWorkload{Workload: toy.New(), class: class}
			if expected {
				// One pattern per symptom a class fingerprints to.
				w.expected = []string{"disk gone", "wait:never", "result lost"}
			}
			_, out := core.Run(w, sim.Config{Seed: 1})
			if got := out.FailureKind(); got != class {
				t.Fatalf("%s: the workload ends in FailureKind %q", class, got)
			}
			if out.Failed() != (class != "ok") {
				t.Fatalf("%s: Failed() = %v", class, out.Failed())
			}
			clean := class == "check" || class == "ok"
			checked := func(stage string) {
				t.Helper()
				want := 0
				if clean {
					want = w.runs
				}
				if w.runs == 0 || w.checks != want {
					t.Errorf("%s: after %s, Check ran %d times over %d runs, want %d", class, stage, w.checks, w.runs, want)
				}
			}
			checked("core.Run")

			// A crash-recovery report whose W site never executes: the
			// replay injects nothing and the run ends as the workload says.
			rep := &detect.Report{Type: detect.CrashRecovery,
				W: detect.OpSummary{Site: "never.go:1", Occurrence: 1}, R: detect.OpSummary{Site: "never.go:2"}}
			trig := NewTriggerer(w, 1).Trigger(rep)
			checked("Trigger")
			wantKind, wantClass := class, TrueBug
			switch {
			case class == "ok":
				wantKind, wantClass = "", Benign
			case expected:
				wantKind, wantClass = "expected-"+class, Expected
			}
			if trig.FailureKind != wantKind || trig.Class != wantClass {
				t.Errorf("%s (expected=%v): trigger says %v %q, want %v %q",
					class, expected, trig.Class, trig.FailureKind, wantClass, wantKind)
			}

			runs, err := campaign.ExecPlans(context.Background(), w, 1, false, 1, []campaign.Plan{{{CrashStep: 1 << 40}}})
			if err != nil {
				t.Fatal(err)
			}
			checked("ExecPlans")
			wantVerdict := campaign.VerdictFailure
			switch {
			case class == "ok":
				wantVerdict = campaign.VerdictTolerated
			case expected:
				wantVerdict = campaign.VerdictExpected
			}
			if sig := runs[0].Sig; sig.Outcome != class || runs[0].Verdict != wantVerdict || (sig.Symptom == "") != (class == "ok") {
				t.Errorf("%s (expected=%v): campaign says %+v %s, want outcome %q verdict %s",
					class, expected, sig, runs[0].Verdict, class, wantVerdict)
			}
		}
	}
}

// TestHandledExcFoldMatchesMaterialized is the trigger-side twin of
// campaign's TestCoverageFoldMatchesMaterialized and
// TestFoldsAreWindowInvariant: for every report of two workloads (HB1 has
// well-handled exceptions, MR1 none), the fold a replay passes its records
// through must reach the verdict the same fold reaches over the kept trace
// of that replay, fed in windows of 1, 7 and 48 records and all at once.
func TestHandledExcFoldMatchesMaterialized(t *testing.T) {
	var found int
	for _, w := range []core.Workload{hbase.NewHB1(), mapreduce.NewMR1()} {
		res, err := core.Detect(w, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		tg := NewTriggerer(w, 1)
		for _, rep := range res.Reports {
			events := TriggerScenario(rep, res.Windows)
			restart := w.RestartRoles()
			if rep.Type == detect.CrashRegular {
				restart = nil
			}
			streamed := &handledExcFold{site: rep.R.Site}
			tg.replay(events, restart, streamed)
			if streamed.found {
				found++
			}

			c, _ := core.Run(w, tg.replayConfig(events, restart))
			tr := c.Trace()
			for _, batch := range []int{1, 7, 48, len(tr.Records)} {
				f := &handledExcFold{site: rep.R.Site}
				for pos := 0; pos < len(tr.Records); pos += batch {
					f.Window(tr, tr.Records[pos:min(pos+batch, len(tr.Records))])
				}
				if f.found != streamed.found || f.detail != streamed.detail {
					t.Errorf("%s %s, windows of %d: found=%v %q, streamed replay found=%v %q",
						w.Name(), rep.Key(), batch, f.found, f.detail, streamed.found, streamed.detail)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no replay met a handled exception; the comparison never saw the found branch")
	}
}
