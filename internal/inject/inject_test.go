package inject

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fcatch/internal/apps/cassandra"
	"fcatch/internal/apps/hbase"
	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/toy"
	"fcatch/internal/apps/zookeeper"
	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
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

// factLog is a fold that keeps every fact it is passed and passes it on to
// next, reading dependences when next does. Site is zeroed: it is a SiteID in
// a folded run and a symbol when sim.FoldTrace feeds a kept trace, so facts
// compare by SiteName.
type factLog struct {
	next  *handledExcFold
	facts []sim.Fact
}

func (l *factLog) Fact(x *sim.Fact) {
	l.next.Fact(x)
	f := *x
	f.Site = sim.NoSite
	l.facts = append(l.facts, f)
}

func (l *factLog) DepSite() string { return l.next.DepSite() }

// mostDependedSite is the site of tr whose executions the most records'
// Taint and Ctl sets name, the source site that exercises a dependence fold
// hardest.
func mostDependedSite(tr *trace.Trace) string {
	refs := map[trace.Sym]int{}
	for i := range tr.Records {
		r := &tr.Records[i]
		for _, id := range slices.Concat(r.Taint, r.Ctl) {
			refs[tr.At(id).Site]++
		}
	}
	best, most := "", 0
	for s, n := range refs {
		if site := tr.Str(s); site != "" && (n > most || n == most && site < best) {
			best, most = site, n
		}
	}
	return best
}

// factMatches reports whether a folded run's fact got is the fact want that
// sim.FoldTrace feeds from the kept record r. Their dependence sets may part
// only where the kept run's cap dropped ops: r's set is full (sim.MaxTaint),
// and got adds only executions older than any r's set keeps.
func factMatches(got, want sim.Fact, r *trace.Record) bool {
	g, w := got, want
	g.Taint, g.Ctl, w.Taint, w.Ctl = nil, nil, nil, nil
	return reflect.DeepEqual(g, w) && capCut(got.Taint, want.Taint, r.Taint) && capCut(got.Ctl, want.Ctl, r.Ctl)
}

// capCut reports whether the kept set raw, cut to the fold's site as want,
// is the folded set got with at most the cap's evictions taken out.
func capCut(got, want, raw []trace.OpID) bool {
	if slices.Equal(got, want) {
		return true
	}
	if len(raw) < sim.MaxTaint {
		return false
	}
	i := 0
	for i < len(got) && got[i] < raw[0] {
		i++
	}
	return slices.Equal(got[i:], want)
}

// checkReplayFolds runs cfg with its trace kept, then folded twice: through a
// handledExcFold for readSite (the kept trace's most depended-on site when
// readSite is ""), which reads dependences as window-0 replays do, and
// through a nil one, which reads none as compound replays and the
// stall-sizing run do. Both folded runs must make the kept run's picks,
// steps and failure detail and keep no trace, and must pass the kept trace's
// records as facts (as sim.FoldTrace feeds them, dependences cut to the
// fold's site, factMatches); the fold's verdict must be the one it reaches
// fed the kept trace. It returns the kept run's outcome and whether the fold
// found a handled exception.
func checkReplayFolds(t *testing.T, w core.Workload, cfg sim.Config, readSite, at string) (*sim.Outcome, bool) {
	t.Helper()
	kc, kept := core.Run(w, cfg)
	tr := kc.Trace()
	if readSite == "" {
		if readSite = mostDependedSite(tr); readSite == "" {
			t.Fatalf("%s: no record of the kept trace depends on another", at)
		}
	}
	var streamed *handledExcFold
	for _, fold := range []*handledExcFold{{site: readSite}, nil} {
		log := &factLog{next: fold}
		fc := cfg
		fc.Fold = log
		c, out := core.Run(w, fc)
		form := "dependence-free"
		if fold != nil {
			form, streamed = "folded", fold
		}
		if out.Picks != kept.Picks || out.Steps != kept.Steps || out.Detail() != kept.Detail() {
			t.Errorf("%s: %s run made %d picks, %d steps, detail %q; the kept run %d, %d, %q",
				at, form, out.Picks, out.Steps, out.Detail(), kept.Picks, kept.Steps, kept.Detail())
		}
		if c.Trace() != nil {
			t.Errorf("%s: %s run kept a trace", at, form)
		}
		want := &factLog{}
		if fold != nil {
			want.next = &handledExcFold{site: readSite}
		}
		sim.FoldTrace(want, tr)
		if len(log.facts) != len(want.facts) {
			t.Errorf("%s: %s run passed %d facts, the kept trace feeds %d", at, form, len(log.facts), len(want.facts))
		}
		for i := range min(len(log.facts), len(want.facts)) {
			if !factMatches(log.facts[i], want.facts[i], &tr.Records[i]) {
				t.Errorf("%s: %s run's fact %d is %+v, the kept trace feeds %+v", at, form, i, log.facts[i], want.facts[i])
				break
			}
		}
		if fold != nil && (want.next.found != fold.found || want.next.detail != fold.detail) {
			t.Errorf("%s: fed the kept trace the fold found=%v %q, in the replay found=%v %q",
				at, want.next.found, want.next.detail, fold.found, fold.detail)
		}
	}
	return kept, streamed.found
}

// TestHandledExcFoldMatchesMaterialized is the trigger-side twin of
// campaign's TestCoverageFoldMatchesMaterialized. For every report of two
// workloads (HB1 has well-handled exceptions, MR1 none), the replay's folded
// forms must match its kept run (checkReplayFolds). On the six workloads'
// fault-free runs at seeds 1–3 they must too, and the Triggerer's stall rule,
// sized by a dependence-free fault-free run, must be stallMultiple × the kept
// run's picks — the picks of the observation's fault-free run.
func TestHandledExcFoldMatchesMaterialized(t *testing.T) {
	var found int
	for _, w := range []core.Workload{hbase.NewHB1(), mapreduce.NewMR1()} {
		res, err := core.Detect(w, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		tg := NewTriggerer(w, 1)
		for _, rep := range res.Reports {
			restart := w.RestartRoles()
			if rep.Type == detect.CrashRegular {
				restart = nil
			}
			cfg := tg.replayConfig(TriggerScenario(rep, res.Windows), restart)
			if _, ok := checkReplayFolds(t, w, cfg, rep.R.Site, w.Name()+" "+rep.Key()); ok {
				found++
			}
		}
	}
	if found == 0 {
		t.Fatal("no replay met a handled exception; the comparison never saw the found branch")
	}
	for _, w := range []core.Workload{
		cassandra.New(), hbase.NewHB1(), hbase.NewHB2(),
		mapreduce.NewMR1(), mapreduce.NewMR2(), zookeeper.New(),
	} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := sim.Config{Seed: seed, Tracing: sim.TraceSelective, TraceTickCost: core.TraceTickCost(sim.TraceSelective)}
			at := fmt.Sprintf("%s seed %d fault-free", w.Name(), seed)
			kept, _ := checkReplayFolds(t, w, cfg, "", at)
			tg := NewTriggerer(w, seed)
			if got := tg.StallPicks(); got != stallMultiple*kept.Picks {
				t.Errorf("%s: StallPicks %d, want %d × the kept run's %d picks", at, got, stallMultiple, kept.Picks)
			}
		}
	}
}
