package campaign

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"fcatch/internal/core"
	"fcatch/internal/obs"
	"fcatch/internal/parallel"
	"fcatch/internal/sim"
)

// Config parameterizes one campaign.
type Config struct {
	// Strategy selects the search strategy ("" = coverage-guided).
	Strategy string
	// Seed is the deterministic seed shared by the simulator and the
	// strategy's own RNG.
	Seed int64
	// Budget is the total number of injection runs (including any resumed
	// prefix). A non-positive budget runs nothing beyond the fault-free
	// preparation.
	Budget int
	// Parallelism bounds how many injection runs execute concurrently
	// (0 = GOMAXPROCS, 1 = sequential). The corpus is identical at any
	// setting: batches are fixed before they run and merged in run order.
	Parallelism int
	// BatchSize caps how many plans run between strategy re-weightings
	// (0 = let the strategy choose; the random and exhaustive strategies
	// take everything, coverage-guided works in rounds).
	BatchSize int
	// Scenarios names the composite-scenario enumerators (see ScenarioNames)
	// appended to the fault space after the single-fault points. Requires a
	// site strategy (the random baseline samples raw steps).
	Scenarios []string
	// Metrics, when non-nil, receives per-strategy proposal/accept counters
	// (proposed, cached, executed, novel, failures). Strictly observe-only:
	// the corpus is byte-identical with or without it. nil is a cheap no-op.
	Metrics *obs.Registry
	// Progress, when non-nil, is called after every committed batch with a
	// point-in-time view of the campaign (runs/sec, dedupe rate, cache
	// hits). Derived state only — the hook cannot influence the search.
	Progress func(Progress)
}

func (cfg Config) withDefaults() Config {
	if cfg.Strategy == "" {
		cfg.Strategy = StrategyCoverage
	}
	if cfg.Budget < 0 {
		cfg.Budget = 0
	}
	cfg.Scenarios = normalizeScenarios(cfg.Scenarios)
	return cfg
}

// normalizeScenarios drops empties and duplicates and puts known scenario
// names in canonical order (unknown names survive, in input order, so
// AppendScenarios can report them), making the corpus identity check
// independent of flag spelling.
func normalizeScenarios(names []string) []string {
	if len(names) == 0 {
		return nil
	}
	asked := map[string]bool{}
	for _, n := range names {
		if n != "" {
			asked[n] = true
		}
	}
	var out []string
	for _, n := range ScenarioNames() {
		if asked[n] {
			out = append(out, n)
			delete(asked, n)
		}
	}
	for _, n := range names {
		if asked[n] {
			out = append(out, n)
			delete(asked, n)
		}
	}
	return out
}

// Result summarizes a finished campaign.
type Result struct {
	Workload string
	Strategy string
	Seed     int64
	// Runs actually executed (≤ budget: site strategies stop when the fault
	// space is exhausted).
	Runs        int
	FailureRuns int
	// Failures maps failure symptom -> run count, excluding expected
	// reactions; distinct keys ≈ distinct bugs exposed (the same metric the
	// Section 8.3 baseline reports).
	Failures map[string]int
	// NovelBehaviors counts runs whose behavior signature was new.
	NovelBehaviors int
	// CachedRuns were answered from the resumed prior corpus; ExecutedRuns
	// ran live. CachedRuns + ExecutedRuns == Runs.
	CachedRuns   int
	ExecutedRuns int
	// SpacePoints is the enumerated fault-space size (0 for `random`).
	SpacePoints int
	// Corpus is the full per-run record (persist with Corpus.Save).
	Corpus *Corpus
}

// UniqueFailures is the number of distinct failure symptoms.
func (r *Result) UniqueFailures() int { return len(r.Failures) }

// Signatures returns the failure symptoms sorted by frequency (desc), ties
// lexicographic.
func (r *Result) Signatures() []string {
	out := make([]string, 0, len(r.Failures))
	for s := range r.Failures {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if r.Failures[out[i]] != r.Failures[out[j]] {
			return r.Failures[out[i]] > r.Failures[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Executor runs the uncached plans of one strategy batch and returns their
// results in plan order. The engine owns everything around the executor —
// batching, prior-corpus cache hits, merge order, strategy feedback — so an
// executor only decides *where* plans run: in-process goroutines (the
// default) or a fleet of remote workers (internal/dist). Because ExecPlan is a
// pure function of (workload, seed, plan), any executor that returns results
// in plan order yields a corpus byte-identical to the sequential run.
//
// An executor error abandons the whole batch: the engine returns the partial
// result built from previously completed batches (corpus prefix = whole
// batches, which is what keeps an interrupted campaign resumable).
type Executor interface {
	ExecuteBatch(ctx context.Context, plans []Plan) ([]RunResult, error)
}

// localExecutor is the in-process executor: one batch fanned out through
// internal/parallel, cancellable at run granularity.
type localExecutor struct {
	w           core.Workload
	seed        int64
	restart     map[string]int64
	traced      bool
	parallelism int
}

func (e *localExecutor) ExecuteBatch(ctx context.Context, plans []Plan) ([]RunResult, error) {
	return parallel.Map(ctx, e.parallelism, len(plans), func(i int) RunResult {
		return ExecPlan(e.w, e.seed, plans[i], e.restart, e.traced)
	})
}

// ExecPlans executes a slice of plans for workload w exactly as the engine's
// local executor would — same isolation, same tracing mode, same determinism:
// each plan through ExecPlan, up to parallelism at a time. A distributed
// worker runs a lease's plans through ExecPlan itself, and because the
// results are a pure function of (workload, seed, plan), the coordinator can
// fold them into the corpus as if it had run them itself.
func ExecPlans(ctx context.Context, w core.Workload, seed int64, traced bool, parallelism int, plans []Plan) ([]RunResult, error) {
	e := &localExecutor{w: w, seed: seed, restart: w.RestartRoles(), traced: traced, parallelism: parallelism}
	return e.ExecuteBatch(ctx, plans)
}

// StrategyTraced reports whether campaigns under this strategy trace their
// injection runs (site strategies do, "" being the coverage-guided default;
// the random baseline runs untraced). Distributed coordinators send it to
// workers so a lease executes with exactly the tracing mode the local engine
// would use.
func StrategyTraced(strategy string) bool { return needsSpace(strategy) }

// Run executes a campaign. A non-nil prior corpus is reused as a cached
// prefix: because strategies are deterministic, re-proposed plans that match
// it run-for-run are answered from the corpus instead of being re-simulated,
// and the campaign continues live past the prefix (a larger Budget than the
// prior run extends the campaign; the same Budget replays it and verifies the
// corpus is self-consistent). A nil exec runs plans in-process at
// cfg.Parallelism.
//
// On cancellation Run returns the partial result accumulated from complete
// batches alongside the context error; the partial corpus is a valid resume
// point because batches commit atomically — an interrupted batch contributes
// nothing, and on resume the deterministic strategy re-proposes it from the
// same state.
func Run(ctx context.Context, w core.Workload, cfg Config, prior *Corpus, exec Executor) (*Result, error) {
	cfg = cfg.withDefaults()
	st, err := NewStrategy(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	if prior != nil {
		if err := checkVersion(prior.Version); err != nil {
			return nil, err
		}
		if prior.Workload != w.Name() || prior.Strategy != cfg.Strategy || prior.Seed != cfg.Seed {
			return nil, fmt.Errorf("campaign: corpus is from (%s, %s, seed %d), cannot resume as (%s, %s, seed %d)",
				prior.Workload, prior.Strategy, prior.Seed, w.Name(), cfg.Strategy, cfg.Seed)
		}
		if !slices.Equal(prior.Scenarios, cfg.Scenarios) {
			return nil, fmt.Errorf("campaign: corpus was run with scenarios %v, cannot resume with %v",
				prior.Scenarios, cfg.Scenarios)
		}
	}

	// One fault-free run: its length is the `random` strategy's sample space.
	// Site strategies trace it to enumerate the fault space (and trace their
	// injection runs, so behavior signatures carry post-fault site coverage);
	// its ops pass through a space fold and none are kept — the engine never
	// holds a full trace of its own. With no tick cost, a traced run is
	// exactly as long as an untraced one.
	traced := needsSpace(cfg.Strategy)
	rcfg := sim.Config{Seed: cfg.Seed}
	var fold *spaceFold
	if traced {
		fold = newSpaceFold()
		rcfg.Tracing, rcfg.Fold = sim.TraceSelective, fold
	}
	_, base := core.Run(w, rcfg)
	if base.Failed() {
		return nil, fmt.Errorf("campaign: fault-free run of %s incorrect (%s): %s", w.Name(), base.FailureKind(), base.Detail())
	}
	sp := &Space{}
	if traced {
		sp = fold.finish(maxOccurrenceDefault)
	}
	sp.BaseSteps = base.Steps
	if len(cfg.Scenarios) > 0 {
		if !traced {
			return nil, fmt.Errorf("campaign: -scenarios needs a site strategy (%s or %s), not %s",
				StrategyExhaustive, StrategyCoverage, cfg.Strategy)
		}
		if err := sp.AppendScenarios(cfg.Scenarios, w.RestartRoles()); err != nil {
			return nil, err
		}
	}
	st.Init(sp, cfg.Seed, cfg.Budget)

	if exec == nil {
		exec = &localExecutor{w: w, seed: cfg.Seed, restart: w.RestartRoles(), traced: traced, parallelism: cfg.Parallelism}
	}
	cor := NewCorpus(w.Name(), cfg.Strategy, cfg.Seed)
	cor.Scenarios = cfg.Scenarios
	res := &Result{Workload: w.Name(), Strategy: cfg.Strategy, Seed: cfg.Seed,
		Failures: map[string]int{}, SpacePoints: len(sp.Points), Corpus: cor}

	// Per-strategy telemetry cells, hoisted out of the loop (one atomic add
	// per event; all no-ops when cfg.Metrics is nil). Wall-clock start feeds
	// only the Progress hook and manifest — never the corpus.
	prefix := "campaign/" + cfg.Strategy + "/"
	cProposed := cfg.Metrics.Counter(prefix + "proposed")
	cCached := cfg.Metrics.Counter(prefix + "cached")
	cExecuted := cfg.Metrics.Counter(prefix + "executed")
	cNovel := cfg.Metrics.Counter(prefix + "novel")
	cFailures := cfg.Metrics.Counter(prefix + "failures")
	start := time.Now()
	batches := 0

	for res.Runs < cfg.Budget {
		limit := cfg.Budget - res.Runs
		if cfg.BatchSize > 0 && cfg.BatchSize < limit {
			limit = cfg.BatchSize
		}
		endBatch := cfg.Metrics.Span("campaign/batch")
		batch := st.NextBatch(limit)
		if len(batch) == 0 {
			endBatch()
			break
		}
		cProposed.Add(int64(len(batch)))
		// Answer the resumed prefix from the prior corpus; only the plans the
		// corpus cannot answer go to the executor. Results land back in their
		// batch slots, so the merge below is in proposal order regardless of
		// how (or where) the missing plans ran.
		first := res.Runs
		results := make([]RunResult, len(batch))
		var missIdx []int
		for i := range batch {
			if prior != nil && first+i < len(prior.Entries) {
				if e := prior.Entries[first+i]; e.Plan.Key() == batch[i].Key() {
					results[i] = e.RunResult
					continue
				}
			}
			missIdx = append(missIdx, i)
		}
		if len(missIdx) > 0 {
			plans := make([]Plan, len(missIdx))
			for j, i := range missIdx {
				plans[j] = batch[i]
			}
			ran, err := exec.ExecuteBatch(ctx, plans)
			if err == nil && len(ran) != len(plans) {
				err = fmt.Errorf("campaign: executor returned %d results for %d plans", len(ran), len(plans))
			}
			if err != nil {
				// The batch is abandoned whole: the result so far covers only
				// complete batches, which keeps the corpus a valid resume
				// point for a later Run.
				res.NovelBehaviors = cor.NovelBehaviors()
				endBatch()
				return res, err
			}
			for j, i := range missIdx {
				results[i] = ran[j]
			}
		}
		res.CachedRuns += len(batch) - len(missIdx)
		res.ExecutedRuns += len(missIdx)
		cCached.Add(int64(len(batch) - len(missIdx)))
		cExecuted.Add(int64(len(missIdx)))
		for i := range results {
			results[i].Novel = cor.add(results[i])
			if results[i].Novel {
				cNovel.Inc()
			}
			if results[i].Verdict == VerdictFailure {
				res.FailureRuns++
				res.Failures[results[i].Sig.Symptom]++
				cFailures.Inc()
			}
		}
		st.Observe(results)
		res.Runs += len(batch)
		batches++
		endBatch()
		if cfg.Progress != nil {
			cfg.Progress(Progress{
				Workload: res.Workload, Strategy: res.Strategy,
				Runs: res.Runs, Budget: cfg.Budget, Batches: batches,
				Cached: res.CachedRuns, Executed: res.ExecutedRuns,
				Novel: cor.NovelBehaviors(), FailureRuns: res.FailureRuns,
				DistinctFailures: len(res.Failures),
				Elapsed:          time.Since(start),
			})
		}
	}
	res.NovelBehaviors = cor.NovelBehaviors()
	return res, nil
}

// ExecPlan executes one injection run in its own isolated cluster. The plan
// goes to the simulator verbatim: its step crashes with no target kill the
// workload's crash target, and its crashes restart per restart, the
// workload's RestartRoles (computed once by the caller and only read here, so
// concurrent runs may share it). Traced runs pass their ops through a
// coverage fold and keep no trace; the fold reads no dependences, so a traced
// run costs an untraced one plus its site lookups. The result is a pure
// function of (w, seed, p, traced).
func ExecPlan(w core.Workload, seed int64, p Plan, restart map[string]int64, traced bool) RunResult {
	rcfg := sim.Config{Seed: seed, Tracing: sim.TraceOff, Plan: sim.NewScenarioPlan(p, w.CrashTarget(), restart)}
	var fold *CoverageFold
	if traced {
		fold = new(CoverageFold)
		rcfg.Tracing = sim.TraceSelective
		rcfg.Fold = fold
	}
	c, out := core.Run(w, rcfg)
	sig := Signature{Outcome: out.FailureKind(), Windows: WindowsFingerprint(out.FaultFirings)}
	if fold != nil {
		sig.Coverage = fold.Hash(c.SiteName)
	}
	verdict := VerdictTolerated
	if out.Failed() {
		sig.Symptom = Symptom(out)
		sig.Expected = core.Expected(w, sig.Symptom)
		verdict = VerdictFailure
		if sig.Expected {
			verdict = VerdictExpected
		}
	}
	return RunResult{Plan: p, Sig: sig, Verdict: verdict}
}
