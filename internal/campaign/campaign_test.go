package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"fcatch/internal/apps/hbase"
	"fcatch/internal/apps/toy"
	"fcatch/internal/core"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// run and resume are Run as most tests here need it: in this process, to
// completion, from scratch or from a prior corpus.
func run(w core.Workload, cfg Config) (*Result, error) {
	return Run(context.Background(), w, cfg, nil, nil)
}

func resume(w core.Workload, cfg Config, prior *Corpus) (*Result, error) {
	return Run(context.Background(), w, cfg, prior, nil)
}

func TestStripPID(t *testing.T) {
	cases := map[string]string{
		"worker#12/main":       "worker/main",
		"hang in am#1 handler": "hang in am handler",
		"no-pids-here":         "no-pids-here",
		"a#1b#22c":             "abc",
	}
	for in, want := range cases {
		if got := stripPID(in); got != want {
			t.Errorf("stripPID(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSymptomShapes(t *testing.T) {
	hang := &sim.Outcome{Hung: []sim.HangSite{
		{PID: "am#1", Name: "main", Thread: 8, Reason: "loop:awaitTasks"},
		{PID: "task1#2", Name: "main", Thread: 52, Reason: "wait:rpc-reply"},
		{PID: "am#1", Name: "gossiper", Thread: 3, Site: "z"}, // non-main: ignored
	}}
	if sig := Symptom(hang); sig != "hang:am/main@loop:awaitTasks" {
		t.Fatalf("hang signature = %q", sig)
	}

	fatal := &sim.Outcome{Completed: true, FatalLogs: []string{"boom@am#2"}}
	if got := Symptom(fatal); got != "fatal:boom@am" {
		t.Fatalf("fatal signature = %q", got)
	}

	if got := Symptom(&sim.Outcome{Completed: true, CheckErr: errors.New("lost data")}); got != "check:lost data" {
		t.Fatalf("check signature = %q", got)
	}
}

func TestPlanKeyAndLowering(t *testing.T) {
	step := Plan{{CrashStep: 77}}
	if step.Key() != "step=77" {
		t.Fatalf("step plan key = %q", step.Key())
	}
	fp := step.simPlan("worker", map[string]int64{"worker": 40})
	sc := fp.Scenario()
	if len(sc) != 1 || sc[0].CrashStep != 77 || sc[0].Target != "worker" || len(fp.RestartRoles) != 1 {
		t.Fatalf("step plan lowered wrong: %+v", fp)
	}
	// The default target lands on the run's event copies, never on the plan
	// parallel runs share.
	if step[0].Target != "" {
		t.Fatalf("simPlan wrote the default target into the shared plan: %+v", step)
	}

	site := Plan{{Site: "a.go:10", Occurrence: 2, When: sim.WhenAfter, Action: sim.ActionKernelDrop}}
	if site.Key() != "site=a.go:10,occ=2,when=after,action=kernel-drop" {
		t.Fatalf("site plan key = %q", site.Key())
	}
	fp = site.simPlan("worker", map[string]int64{"worker": 40})
	sc = fp.Scenario()
	if len(sc) != 1 || fp.RestartRoles != nil {
		t.Fatalf("drop plan lowered wrong: %+v", fp)
	}
	if sc[0].Site != "a.go:10" || sc[0].Occurrence != 2 || sc[0].When != sim.WhenAfter || sc[0].Action != sim.ActionKernelDrop {
		t.Fatalf("site event wrong: %+v", sc[0])
	}

	crash := Plan{{Site: "a.go:10", Occurrence: 1, When: sim.WhenBefore, Action: sim.ActionNodeCrash}}
	if fp := crash.simPlan("worker", map[string]int64{"worker": 40}); len(fp.RestartRoles) != 1 {
		t.Fatal("crash plans must carry the restart map")
	}

	rd := int64(40)
	comp := Plan{
		{Site: "a.go:10", Occurrence: 1, When: sim.WhenBefore, Action: sim.ActionNodeCrash, Restart: &rd},
		{Delay: 48, Action: sim.ActionNodeCrash},
	}
	if comp.Key() != "site=a.go:10,occ=1,when=before,action=node-crash,restart=40;action=node-crash,delay=48" {
		t.Fatalf("composite plan key = %q", comp.Key())
	}
	fp = comp.simPlan("worker", map[string]int64{"worker": 40})
	if sc = fp.Scenario(); len(sc) != 2 || sc[1].Delay != 48 || sc[1].Target != "" {
		t.Fatalf("composite plan lowered wrong: %+v", sc)
	}
}

// tracedFaultFree returns the fault-free trace and step count of a workload.
func tracedFaultFree(t *testing.T, w core.Workload) (*sim.Cluster, int64) {
	t.Helper()
	cfg := sim.Config{Seed: 1, Tracing: sim.TraceSelective}
	w.Tune(&cfg)
	c := sim.NewCluster(cfg)
	w.Configure(c)
	out := c.Run()
	if err := w.Check(c, out); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	return c, out.Steps
}

func TestSpaceEnumeration(t *testing.T) {
	c, steps := tracedFaultFree(t, toy.New())
	sp := NewSpace(c.Trace(), steps, "worker", 0)

	if len(sp.Sites) == 0 || len(sp.Points) == 0 {
		t.Fatal("empty fault space from a traced run")
	}
	// Sites are in first-execution order.
	for i := 1; i < len(sp.Sites); i++ {
		if sp.Sites[i].FirstTS < sp.Sites[i-1].FirstTS {
			t.Fatal("sites not in first-execution order")
		}
	}
	// Every point is well-formed, unique, and within the occurrence cap;
	// drop points only appear on sendable/droppable sites.
	seen := map[string]bool{}
	bySite := map[string]SiteInfo{}
	for _, si := range sp.Sites {
		bySite[si.Site] = si
	}
	hasDrop := false
	for _, plan := range sp.Points {
		if len(plan) != 1 || plan[0].Site == "" {
			t.Fatalf("not a single site point in the site space: %+v", plan)
		}
		p := plan[0]
		if seen[plan.Key()] {
			t.Fatalf("duplicate point %s", plan.Key())
		}
		seen[plan.Key()] = true
		si := bySite[p.Site]
		if p.Occurrence < 1 || p.Occurrence > maxOccurrenceDefault || p.Occurrence > si.Count {
			t.Fatalf("occurrence out of range: %+v (site count %d)", p, si.Count)
		}
		switch p.Action {
		case sim.ActionKernelDrop:
			hasDrop = true
			if !si.Sendable {
				t.Fatalf("kernel-drop on non-sendable site %s", p.Site)
			}
		case sim.ActionAppDrop:
			if !si.Droppable {
				t.Fatalf("app-drop on non-droppable site %s", p.Site)
			}
		}
	}
	if !hasDrop {
		t.Fatal("toy sends messages; space should contain kernel-drop points")
	}

	// Enumeration is deterministic.
	sp2 := NewSpace(c.Trace(), steps, "worker", 0)
	if !reflect.DeepEqual(sp.Points, sp2.Points) {
		t.Fatal("space enumeration not deterministic")
	}
}

// corpusJSON canonicalizes a corpus for byte comparison.
func corpusJSON(t *testing.T, c *Corpus) string {
	t.Helper()
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCampaignParallelismInvariant pins the determinism contract: identical
// (workload, seed, budget, strategy) yields an identical corpus — and so
// identical distinct-failure counts — at any parallelism, for every strategy.
func TestCampaignParallelismInvariant(t *testing.T) {
	for _, strat := range StrategyNames() {
		var want string
		for _, par := range []int{1, 4, 0} {
			res, err := run(toy.New(), Config{Strategy: strat, Seed: 5, Budget: 30, Parallelism: par})
			if err != nil {
				t.Fatalf("%s: %v", strat, err)
			}
			got := corpusJSON(t, res.Corpus)
			if par == 1 {
				want = got
			} else if got != want {
				t.Errorf("%s: corpus at parallelism %d differs from sequential", strat, par)
			}
		}
	}
}

// TestSignatureStability: the same (workload, seed, plan) produces the same
// behavior signature on every execution and at any parallelism — and
// distinct planted bugs produce distinct signatures.
func TestSignatureStability(t *testing.T) {
	w := toy.New()
	restart := w.RestartRoles()

	c, steps := tracedFaultFree(t, w)
	sp := NewSpace(c.Trace(), steps, w.CrashTarget(), 0)

	// Repeated runs of one plan are byte-identical.
	for _, p := range sp.Points[:6] {
		a := runPlan(w, 1, p, sp.Target, restart, true)
		b := runPlan(w, 1, p, sp.Target, restart, true)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("plan %s: signature unstable across runs:\n%+v\n%+v", p.Key(), a, b)
		}
	}

	// The toy's two planted TOF bugs have distinct signatures: dropping the
	// worker's hello hangs the server's untimed wait (crash-regular), while
	// crashing the worker right after the commit RPC poisons recovery
	// (crash-recovery, the Figure 1 miniature).
	bySymptom := map[string]Plan{}
	for _, p := range sp.Points {
		r := runPlan(w, 1, p, sp.Target, restart, true)
		if r.Verdict == VerdictFailure {
			if _, ok := bySymptom[r.Sig.Symptom]; !ok {
				bySymptom[r.Sig.Symptom] = p
			}
		}
	}
	var serverHang, recoveryPoison bool
	for s := range bySymptom {
		if s == "hang:server/main@wait:worker-ready" {
			serverHang = true
		}
		if s == "fatal:commit denied: task poisoned by dead attempt@worker" {
			recoveryPoison = true
		}
	}
	if !serverHang || !recoveryPoison {
		t.Fatalf("planted bugs not distinguished; failure symptoms = %v", keys(bySymptom))
	}
}

func keys(m map[string]Plan) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestCampaignResume: stopping a campaign, persisting its corpus, and
// resuming with a larger budget reproduces exactly the corpus a single
// uninterrupted campaign would have produced.
func TestCampaignResume(t *testing.T) {
	cfg := Config{Strategy: StrategyCoverage, Seed: 2, Budget: 12, Parallelism: 2}
	half, err := run(toy.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "corpus.json")
	if err := half.Corpus.Save(path); err != nil {
		t.Fatal(err)
	}
	prior, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Budget = 30
	resumed, err := resume(toy.New(), cfg, prior)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := run(toy.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if corpusJSON(t, resumed.Corpus) != corpusJSON(t, oneShot.Corpus) {
		t.Fatal("resumed corpus differs from an uninterrupted campaign")
	}
	if resumed.Runs != oneShot.Runs || resumed.FailureRuns != oneShot.FailureRuns ||
		!reflect.DeepEqual(resumed.Failures, oneShot.Failures) {
		t.Fatal("resumed result differs from an uninterrupted campaign")
	}

	// Identity mismatches are rejected rather than silently re-run.
	bad := Config{Strategy: StrategyCoverage, Seed: 3, Budget: 30}
	if _, err := resume(toy.New(), bad, prior); err == nil {
		t.Fatal("resume with a different seed should fail")
	}
}

// TestCoverageGuidedBeatsRandom is the headline claim: at an equal run
// budget, coverage-guided finds at least as many distinct failure signatures
// as the uniform-random baseline on every workload tested here, and strictly
// more on TOY and HB1 — random injection finds nothing at all on HB1 in 400
// runs (Section 8.3), while the site-based search pinpoints the META-open
// hang.
func TestCoverageGuidedBeatsRandom(t *testing.T) {
	const budget = 400
	for _, w := range []core.Workload{toy.New(), hbase.NewHB1()} {
		rnd, err := run(w, Config{Strategy: StrategyRandom, Seed: 1, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		cov, err := run(w, Config{Strategy: StrategyCoverage, Seed: 1, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if cov.UniqueFailures() < rnd.UniqueFailures() {
			t.Errorf("%s: coverage-guided found %d distinct failures, random found %d",
				w.Name(), cov.UniqueFailures(), rnd.UniqueFailures())
		}
		if cov.UniqueFailures() <= rnd.UniqueFailures() {
			t.Errorf("%s: coverage-guided (%d) should strictly beat random (%d) here",
				w.Name(), cov.UniqueFailures(), rnd.UniqueFailures())
		}
	}
}

func TestCorpusDiff(t *testing.T) {
	a := NewCorpus("TOY", StrategyRandom, 1)
	b := NewCorpus("TOY", StrategyCoverage, 1)
	add := func(c *Corpus, symptom string) {
		c.add(RunResult{
			Sig:     Signature{Outcome: "hang", Symptom: symptom},
			Verdict: VerdictFailure,
		})
	}
	add(a, "hang:x")
	add(a, "hang:shared")
	add(b, "hang:shared")
	add(b, "hang:y")
	add(b, "hang:z")

	d := DiffCorpora(a, b)
	if !reflect.DeepEqual(d.OnlyA, []string{"hang:x"}) ||
		!reflect.DeepEqual(d.OnlyB, []string{"hang:y", "hang:z"}) ||
		!reflect.DeepEqual(d.Shared, []string{"hang:shared"}) {
		t.Fatalf("diff wrong: %+v", d)
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	if _, err := run(toy.New(), Config{Strategy: "simulated-annealing", Budget: 1}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestExhaustiveStopsAtSpace: site strategies end early once the fault space
// is exhausted instead of re-running plans (the simulator is deterministic,
// so repeats cannot find anything new).
func TestExhaustiveStopsAtSpace(t *testing.T) {
	res, err := run(toy.New(), Config{Strategy: StrategyExhaustive, Seed: 1, Budget: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != res.SpacePoints {
		t.Fatalf("runs = %d, space = %d; exhaustive should stop at the space size",
			res.Runs, res.SpacePoints)
	}
	// And it visits every point exactly once.
	seen := map[string]bool{}
	for _, e := range res.Corpus.Entries {
		if seen[e.Plan.Key()] {
			t.Fatalf("point %s run twice", e.Plan.Key())
		}
		seen[e.Plan.Key()] = true
	}
}

// keptRun replays p with every record kept and returns the run's trace.
func keptRun(w core.Workload, p Plan, target string) *trace.Trace {
	c, _ := core.Run(w, sim.Config{Seed: 1, Tracing: sim.TraceSelective, Plan: p.simPlan(target, w.RestartRoles())})
	return c.Trace()
}

// TestCoverageFoldMatchesMaterialized pins the coverage signature of the
// engine's injection runs, which fold their records as they are emitted: it
// must be exactly what the one-shot fold computes over the complete trace of
// the same plan run with every record kept.
func TestCoverageFoldMatchesMaterialized(t *testing.T) {
	w := toy.New()
	restart := w.RestartRoles()
	c, steps := tracedFaultFree(t, w)
	sp := NewSpace(c.Trace(), steps, w.CrashTarget(), 0)
	n := len(sp.Points)
	if n > 10 {
		n = 10
	}
	var fired int
	for _, p := range sp.Points[:n] {
		streamed := runPlan(w, 1, p, sp.Target, restart, true)
		refTr := keptRun(w, p, sp.Target)
		for i := range refTr.Records {
			r := &refTr.Records[i]
			if r.Kind == trace.KCrash || r.Flags&trace.FlagDropped != 0 {
				fired++
				break
			}
		}
		if got, want := streamed.Sig.Coverage, postFaultCoverage(refTr); got != want {
			t.Fatalf("plan %s: folded run's coverage %#x, kept trace's %#x", p.Key(), got, want)
		}
	}
	if fired == 0 {
		t.Fatal("no sampled plan fired its fault; the post-fault path went untested")
	}
}

// TestFoldsAreWindowInvariant: a fold's answer is a function of the record
// sequence, not of how the tracer's window happens to cut it. CoverageFold
// and spaceFold, fed a kept trace in windows of 1, 7 and 48 records, give the
// answer they give fed the whole trace at once — on the fault-free trace and
// on faulty ones, where the coverage fold's fault moment falls inside a
// window at one size and on a boundary at another.
func TestFoldsAreWindowInvariant(t *testing.T) {
	w := toy.New()
	c, steps := tracedFaultFree(t, w)
	traces := map[string]*trace.Trace{"fault-free": c.Trace()}
	sp := NewSpace(c.Trace(), steps, w.CrashTarget(), 0)
	for _, p := range sp.Points[:min(6, len(sp.Points))] {
		traces[p.Key()] = keptRun(w, p, sp.Target)
	}
	folds := map[string]func(tr *trace.Trace) (trace.WindowFn, func() any){
		"CoverageFold": func(tr *trace.Trace) (trace.WindowFn, func() any) {
			f := new(CoverageFold)
			return f.Window, func() any { return f.Hash(tr) }
		},
		"spaceFold": func(*trace.Trace) (trace.WindowFn, func() any) {
			f := newSpaceFold(w.CrashTarget())
			return f.Window, func() any { return f.finish(0) }
		},
	}
	for name, mk := range folds {
		for run, tr := range traces {
			fold, answer := mk(tr)
			fold(tr, tr.Records)
			want := answer()
			for _, n := range []int{1, 7, 48} {
				fold, answer := mk(tr)
				for pos := 0; pos < len(tr.Records); pos += n {
					fold(tr, tr.Records[pos:min(pos+n, len(tr.Records))])
				}
				if got := answer(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s over %s: windows of %d gave %v, the whole trace %v", name, run, n, got, want)
				}
			}
		}
	}
}

// configureCounter is a workload that counts the clusters it is asked to
// configure, i.e. the simulator runs made on it.
type configureCounter struct {
	core.Workload
	runs int
}

func (w *configureCounter) Configure(c *sim.Cluster) {
	w.runs++
	w.Workload.Configure(c)
}

// TestOneFaultFreeRunPerCampaign: a campaign prepares with one fault-free run
// — traced with the space fold for a site strategy — and a zero budget runs
// nothing beyond it.
func TestOneFaultFreeRunPerCampaign(t *testing.T) {
	for _, strat := range []string{StrategyCoverage, StrategyRandom} {
		w := &configureCounter{Workload: toy.New()}
		if _, err := run(w, Config{Strategy: strat, Seed: 1, Budget: 0}); err != nil {
			t.Fatal(err)
		}
		if w.runs != 1 {
			t.Errorf("%s: a zero-budget campaign made %d runs, want 1", strat, w.runs)
		}
	}
}

// interruptingExecutor executes batches on the worker path (ExecPlans) and
// cancels the campaign at the start of its Nth batch — a deterministic
// mid-batch interruption.
type interruptingExecutor struct {
	w       core.Workload
	cfg     Config
	batches int
	failAt  int
	cancel  context.CancelFunc
}

func (e *interruptingExecutor) ExecuteBatch(ctx context.Context, plans []Plan) ([]RunResult, error) {
	e.batches++
	if e.batches == e.failAt {
		e.cancel()
		return nil, ctx.Err()
	}
	return ExecPlans(ctx, e.w, e.cfg.Seed, StrategyTraced(e.cfg.Strategy), 1, plans)
}

// TestResumeAfterMidBatchInterruption pins the recovery contract at the
// engine level, with no timing involved: a campaign interrupted mid-batch
// keeps exactly its complete batches, and resuming from that partial corpus
// converges byte-for-byte with a never-interrupted run.
func TestResumeAfterMidBatchInterruption(t *testing.T) {
	cfg := Config{Strategy: StrategyRandom, Seed: 9, Budget: 120, BatchSize: 20, Parallelism: 1}
	want, err := run(toy.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex := &interruptingExecutor{w: toy.New(), cfg: cfg, failAt: 3, cancel: cancel}
	partial, err := Run(ctx, toy.New(), cfg, nil, ex)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign: err = %v, want context.Canceled", err)
	}
	if wantRuns := 2 * cfg.BatchSize; partial.Runs != wantRuns {
		t.Fatalf("partial campaign kept %d runs, want the %d of its complete batches", partial.Runs, wantRuns)
	}

	path := filepath.Join(t.TempDir(), "partial.json")
	if err := partial.Corpus.Save(path); err != nil {
		t.Fatal(err)
	}
	prior, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := resume(toy.New(), cfg, prior)
	if err != nil {
		t.Fatal(err)
	}
	if corpusJSON(t, resumed.Corpus) != corpusJSON(t, want.Corpus) {
		t.Fatal("corpus resumed after a mid-batch interruption differs from an uninterrupted campaign")
	}
}
