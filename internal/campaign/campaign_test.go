package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"fcatch/internal/apps/cassandra"
	"fcatch/internal/apps/hbase"
	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/toy"
	"fcatch/internal/apps/zookeeper"
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

	fatal := &sim.Outcome{Stop: sim.StopDone, FatalLogs: []string{"boom@am#2"}}
	if got := Symptom(fatal); got != "fatal:boom@am" {
		t.Fatalf("fatal signature = %q", got)
	}

	// A fatal log signs the run even beside an uncaught exception, though
	// FailureKind ranks the exception first.
	both := &sim.Outcome{Stop: sim.StopDone, FatalLogs: []string{"boom@am#2"}, UncaughtExceptions: []string{"npe@task1#3"}}
	if got, kind := Symptom(both), both.FailureKind(); got != "fatal:boom@am" || kind != "exception" {
		t.Fatalf("fatal+exception signature = %q, kind = %q; want fatal:boom@am and exception", got, kind)
	}

	if got := Symptom(&sim.Outcome{Stop: sim.StopDone, CheckErr: errors.New("lost data")}); got != "check:lost data" {
		t.Fatalf("check signature = %q", got)
	}
}

// TestPlanKey: a plan's key is its -scenario string.
func TestPlanKey(t *testing.T) {
	step := Plan{{CrashStep: 77}}
	if step.Key() != "step=77" {
		t.Fatalf("step plan key = %q", step.Key())
	}
	site := Plan{{Site: "a.go:10", Occurrence: 2, When: trace.WhenAfter, Action: trace.ActionKernelDrop}}
	if site.Key() != "site=a.go:10,occ=2,when=after,action=kernel-drop" {
		t.Fatalf("site plan key = %q", site.Key())
	}
	rd := int64(40)
	comp := Plan{
		{Site: "a.go:10", Occurrence: 1, When: trace.WhenBefore, Action: trace.ActionNodeCrash, Restart: &rd},
		{Delay: 48, Action: trace.ActionNodeCrash},
	}
	if comp.Key() != "site=a.go:10,occ=1,when=before,action=node-crash,restart=40;action=node-crash,delay=48" {
		t.Fatalf("composite plan key = %q", comp.Key())
	}
}

// tracedFaultFree returns the fault-free trace and step count of a workload.
func tracedFaultFree(t *testing.T, w core.Workload) (*sim.Cluster, int64) {
	t.Helper()
	c, out := core.Run(w, sim.Config{Seed: 1, Tracing: sim.TraceSelective})
	if out.Failed() {
		t.Fatalf("fault-free run: %s: %s", out.FailureKind(), out.Detail())
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
		case trace.ActionKernelDrop:
			hasDrop = true
			if !si.Sendable {
				t.Fatalf("kernel-drop on non-sendable site %s", p.Site)
			}
		case trace.ActionAppDrop:
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

	c, steps := tracedFaultFree(t, w)
	sp := NewSpace(c.Trace(), steps, w.CrashTarget(), 0)

	// Repeated runs of one plan are byte-identical.
	for _, p := range sp.Points[:6] {
		a := ExecPlan(w, 1, p, true)
		b := ExecPlan(w, 1, p, true)
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
		r := ExecPlan(w, 1, p, true)
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
func keptRun(w core.Workload, p Plan) *trace.Trace {
	c, _ := core.Run(w, planConfig(w, p))
	return c.Trace()
}

// planConfig is the selectively traced configuration of one run of p, trace
// kept.
func planConfig(w core.Workload, p Plan) sim.Config {
	return sim.Config{Seed: 1, Tracing: sim.TraceSelective, Plan: sim.NewScenarioPlan(p, w.CrashTarget(), w.RestartRoles())}
}

// factLog is a fold that keeps every fact it is passed, reading dependences
// on the executions of site. Site is zeroed: it is a SiteID in a folded run
// and a symbol when sim.FoldTrace feeds a kept trace, so facts compare by
// SiteName.
type factLog struct {
	site  string
	facts []sim.Fact
}

func (l *factLog) Fact(x *sim.Fact) {
	f := *x
	f.Site = sim.NoSite
	l.facts = append(l.facts, f)
}
func (l *factLog) DepSite() string { return l.site }

// tee passes every fact to each of its folds; it reads dependences on the
// first source site one of them names.
type tee []sim.Fold

func (t tee) Fact(x *sim.Fact) {
	for _, f := range t {
		f.Fact(x)
	}
}

func (t tee) DepSite() string {
	for _, f := range t {
		if s := f.DepSite(); s != "" {
			return s
		}
	}
	return ""
}

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

// checkFolds runs cfg with its trace kept, then twice folded: through a fact
// log that reads dependences on the trace's most depended-on site, and
// through one that reads none teed with the campaign's own folds
// (CoverageFold and spaceFold, which read none either). Both folded runs must
// make the kept run's picks, steps and failure detail and keep no trace; each
// log must hold the kept trace's records as sim.FoldTrace feeds them, with
// dependences cut to the log's site; and each campaign fold must give the
// answer it gives fed the kept trace. It reports whether the run's fault
// fired.
func checkFolds(t *testing.T, w core.Workload, cfg sim.Config, at string) (fired bool) {
	t.Helper()
	kc, kept := core.Run(w, cfg)
	tr := kc.Trace()
	for i := range tr.Records {
		if r := &tr.Records[i]; r.Kind == trace.KCrash || r.HasFlag(trace.FlagDropped) {
			fired = true
			break
		}
	}
	cov, space := new(CoverageFold), newSpaceFold()
	site := mostDependedSite(tr)
	if site == "" {
		t.Fatalf("%s: no record of the kept trace depends on another", at)
	}
	for _, deps := range []bool{true, false} {
		log := &factLog{}
		fc := cfg
		fc.Fold = tee{log, cov, space}
		if deps {
			log.site, fc.Fold = site, log
		}
		c, out := core.Run(w, fc)
		form := map[bool]string{true: "folded", false: "dependence-free"}[deps]
		if out.Picks != kept.Picks || out.Steps != kept.Steps || out.Detail() != kept.Detail() {
			t.Errorf("%s: %s run made %d picks, %d steps, detail %q; the kept run %d, %d, %q",
				at, form, out.Picks, out.Steps, out.Detail(), kept.Picks, kept.Steps, kept.Detail())
		}
		if c.Trace() != nil {
			t.Errorf("%s: %s run kept a trace", at, form)
		}
		want := &factLog{site: log.site}
		sim.FoldTrace(want, tr)
		if !reflect.DeepEqual(log.facts, want.facts) {
			i := 0
			for i < min(len(log.facts), len(want.facts)) && reflect.DeepEqual(log.facts[i], want.facts[i]) {
				i++
			}
			t.Errorf("%s: %s run passed %d facts, the kept trace feeds %d; they part at fact %d",
				at, form, len(log.facts), len(want.facts), i)
		}
		if !deps {
			if got, want := cov.Hash(c.SiteName), postFaultCoverage(tr); got != want {
				t.Errorf("%s: folded run's coverage %#x, kept trace's %#x", at, got, want)
			}
			if got, want := space.finish(0), NewSpace(tr, 0, w.CrashTarget(), 0); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: folded run's space has %d sites, the kept trace's %d", at, len(got.Sites), len(want.Sites))
			}
		}
	}
	return fired
}

// TestCoverageFoldMatchesMaterialized pins the facts the campaign's runs fold
// and the answers its folds give. The engine's injection runs and its
// fault-free run fold their ops as they are emitted and track no
// dependences: on the toy workload's fault-free run and first ten plans, and
// on the six workloads' fault-free runs at seeds 1–3, every folded form of a
// run must make the kept run's schedule and pass its records as facts
// (checkFolds), and ExecPlan's coverage signature must be what the one-shot
// fold computes over the kept trace of the same plan.
func TestCoverageFoldMatchesMaterialized(t *testing.T) {
	w := toy.New()
	c, steps := tracedFaultFree(t, w)
	sp := NewSpace(c.Trace(), steps, w.CrashTarget(), 0)
	checkFolds(t, w, sim.Config{Seed: 1, Tracing: sim.TraceSelective}, "toy fault-free")
	var fired int
	for _, p := range sp.Points[:min(10, len(sp.Points))] {
		if checkFolds(t, w, planConfig(w, p), "toy "+p.Key()) {
			fired++
		}
		streamed := ExecPlan(w, 1, p, true)
		if got, want := streamed.Sig.Coverage, postFaultCoverage(keptRun(w, p)); got != want {
			t.Fatalf("plan %s: ExecPlan's coverage %#x, kept trace's %#x", p.Key(), got, want)
		}
	}
	if fired == 0 {
		t.Fatal("no sampled plan fired its fault; the post-fault path went untested")
	}
	for _, w := range []core.Workload{
		cassandra.New(), hbase.NewHB1(), hbase.NewHB2(),
		mapreduce.NewMR1(), mapreduce.NewMR2(), zookeeper.New(),
	} {
		for seed := int64(1); seed <= 3; seed++ {
			checkFolds(t, w, sim.Config{Seed: seed, Tracing: sim.TraceSelective}, fmt.Sprintf("%s seed %d fault-free", w.Name(), seed))
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
