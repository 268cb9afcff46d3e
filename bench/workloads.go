package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"fcatch"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/hb"
	"fcatch/internal/inject"
	"fcatch/internal/obs"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// item is one Table 1 row a sweep visits. Its name is the workload's with
// "&" dropped ("CA12"), because "&" is not legal in a metric name.
type item struct {
	name string
	w    fcatch.Workload
}

// allItems returns the six Table 1 workloads in table order.
func allItems() []item {
	var out []item
	for _, w := range fcatch.Workloads() {
		out = append(out, item{strings.ReplaceAll(w.Name(), "&", ""), w})
	}
	return out
}

// campaignBudget is the injection-run budget of one campaign or dist op, the
// size the legacy campaign/*/runs=40 entries used.
const campaignBudget = 40

// config fixes one benchmark run's conditions.
type config struct {
	// seed is the simulator and campaign seed. It fixes what every item
	// costs, so it is not the benchmark's input seed: between simulator seeds
	// a sweep's time and allocations differ by 15 %, which would drown the
	// bounds. The input seed drives order instead.
	seed int64
	// order draws the order in which each sweep visits the items.
	order   *rand.Rand
	seconds float64
	workers int
	items   []item
	budget  int
	// warmup, when positive, replaces every workload's warm-up sweep count;
	// the tier-1 test uses it to stay short.
	warmup int
	// scratch is an existing directory the ledger saves corpora into.
	scratch string
}

// answer is what one op produced, reduced to what the checker compares: with
// expected.json, with the same item's answer earlier in the run, and with the
// sibling path's answer a set-up computed (offline against predict, dist
// against campaign). Fields a workload does not produce stay zero.
type answer struct {
	Regular  int    // crash-regular reports
	Recovery int    // crash-recovery reports
	Keys     string // SHA-256 over the deduplicated report keys, in order
	Table3   string // the item's Table 3 cells, "old/new/exp/false old/new/exp/false"
	Bugs     string // Table 2 IDs confirmed as true bugs, sorted, comma-separated
	Campaign [4]int // runs, failure runs, unique failures, novel behaviors
	Corpus   string // SHA-256 of the campaign corpus
	Runs     int    // program executions the op simulated or analysed
}

// state is what a workload's set-up built: its inputs, and the reference
// answers its ops must reproduce.
type state struct {
	pairs map[string]*tracePair
	refs  map[string]answer
}

// tracePair is one item's recorded observation as an offline analysis finds
// it on disk: both traces encoded to FCT2 bytes, and the hazard windows the
// observation derived.
type tracePair struct {
	faultFree, faulty []byte
	windows           []detect.Window
	// The decoded traces, kept for the ledger's codec and index probes.
	ff, fy *trace.Trace
}

// workload is one benchmark workload: a set-up and an op run on every item.
type workload struct {
	name string
	why  string
	// warmup is the fixed number of warm-up sweeps, sized so that set-up
	// takes at least a second on the reference host.
	warmup int
	// parallel says the op fans out over cfg.workers. A sequential workload
	// runs at GOMAXPROCS 1: a second scheduler thread gives it nothing but
	// stolen hand-offs and collector threads that the host's other tenants
	// preempt, and it measured both slower and less steady with one.
	parallel bool
	setup    func(cfg *config) (*state, error)
	// op runs the workload's top-level call on one item. With a recorder it
	// runs the same work with a span around every call it makes into a layer.
	op func(cfg *config, st *state, it item, rec *recorder) (answer, error)
}

var workloads = []workload{
	{
		name:   "predict",
		why:    "Fig. 2 steps 1-3 (observe, trace, analyse): simulator and tracer dominate, trigger and campaign layers are bypassed",
		warmup: 35,
		setup:  noInputs,
		op:     predictOp,
	},
	{
		name:   "offline",
		why:    "analysis of saved FCT2 traces: trace decode, hb build and both detectors with no simulation, so analysis drift shows",
		warmup: 120,
		setup:  offlineSetup,
		op:     offlineOp,
	},
	{
		name:   "evaluation",
		why:    "detect then trigger every report: trigger replays dominate, so inject and simulator changes show and detector ones do not",
		warmup: 2,
		setup:  noInputs,
		op:     evaluationOp,
	},
	{
		name:     "campaign",
		why:      "in-process coverage-guided campaign of 40 runs: discard tracer, signatures, corpus and the parallel pool",
		warmup:   1,
		parallel: true,
		setup:    noInputs,
		op:       campaignOp,
	},
	{
		name:     "dist",
		why:      "the same campaign through coordinator, JSON frames and leases over loopback, so dist minus campaign is wire overhead",
		warmup:   1,
		parallel: true,
		setup:    distSetup,
		op:       distOp,
	},
}

// procs is the GOMAXPROCS the workload's sweeps run at.
func (wl *workload) procs(cfg *config) int {
	if wl.parallel {
		return cfg.workers
	}
	return 1
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func noInputs(*config) (*state, error) { return &state{}, nil }

// detectOpts is the paper's evaluation setting at the run's seed, sequential.
func detectOpts(cfg *config) fcatch.Options {
	return fcatch.Options{Seed: cfg.seed, Phase: fcatch.PhaseBegin, Tracing: sim.TraceSelective, Parallelism: 1}
}

func reportAnswer(regular, recovery int, reports []*detect.Report) answer {
	h := sha256.New()
	for _, r := range reports {
		h.Write([]byte(r.Key()))
		h.Write([]byte{'\n'})
	}
	return answer{Regular: regular, Recovery: recovery, Keys: hex.EncodeToString(h.Sum(nil)), Runs: 2}
}

// --- predict ---

func predictOp(cfg *config, _ *state, it item, rec *recorder) (answer, error) {
	if rec == nil {
		res, err := fcatch.Detect(it.w, detectOpts(cfg))
		if err != nil {
			return answer{}, err
		}
		return reportAnswer(len(res.Regular.Reports), len(res.Recovery.Reports), res.Reports), nil
	}
	// The traced op is core.Detect taken apart at its layer boundaries.
	opts := detectOpts(cfg)
	opts.Metrics = obs.New()
	s := rec.begin("core.observe")
	o, gf, gy, err := core.ObserveIndexed(it.w, opts)
	rec.end(s)
	if err != nil {
		return answer{}, err
	}
	rec.add("core.passes", 1)
	rec.add("core.faulty_attempts", 1+opts.Metrics.Counter("core/observe/retries").Value())

	dopts := detect.Options{CrashedPIDs: o.CrashedPIDs}
	for _, f := range o.FaultFirings {
		dopts.Firings = append(dopts.Firings, detect.FaultFiring{
			Index: f.Index, Action: f.Action, Step: f.Step,
			Site: f.Site, Occurrence: f.Occurrence, When: f.When, Victim: f.Victim,
		})
	}
	dopts.Windows = detect.ObservationWindows(o.Faulty, dopts)
	return analyse(it, gf, gy, dopts, rec), nil
}

// analyse runs both detectors over a graph pair, with a span and candidate
// counts around each when traced.
func analyse(it item, gf, gy *hb.Graph, dopts detect.Options, rec *recorder) answer {
	if rec != nil {
		dopts.Metrics = obs.New()
	}
	s := rec.begin("detect.regular")
	reg := detect.DetectRegularOpts(gf, it.w.Name(), dopts)
	rec.end(s)
	var regCands int64
	if rec != nil {
		regCands = candidates(dopts.Metrics)
	}
	s = rec.begin("detect.recovery")
	rcv := detect.DetectRecoveryOpts(gf, gy, it.w.Name(), dopts)
	rec.end(s)

	reports := detect.Dedup(append(append([]*detect.Report(nil), reg.Reports...), rcv.Reports...))
	if rec != nil {
		rec.add("detect.passes", 1)
		rec.add("detect.regular_candidates", regCands)
		rec.add("detect.recovery_candidates", candidates(dopts.Metrics)-regCands)
		rec.add("detect.kept", dopts.Metrics.Counter("detect/rule/"+detect.RuleKept).Value())
		rec.add("detect.reports", int64(len(reports)))
	}
	return reportAnswer(len(reg.Reports), len(rcv.Reports), reports)
}

// candidates is how many candidates the detectors have judged into reg: every
// candidate gets exactly one rule verdict, "kept" included.
func candidates(reg *obs.Registry) int64 {
	var n int64
	for _, rule := range detect.RuleNames() {
		n += reg.Counter("detect/rule/" + rule).Value()
	}
	return n
}

// --- offline ---

// observePair runs the prediction pass once and keeps what an offline
// analysis would find on disk, plus the answer the pass itself gave.
func observePair(cfg *config, it item) (*tracePair, answer, error) {
	res, err := fcatch.Detect(it.w, detectOpts(cfg))
	if err != nil {
		return nil, answer{}, err
	}
	p := &tracePair{windows: res.Windows, ff: res.Observation.FaultFree, fy: res.Observation.Faulty}
	var ff, fy bytes.Buffer
	if err := p.ff.Encode(&ff); err != nil {
		return nil, answer{}, err
	}
	if err := p.fy.Encode(&fy); err != nil {
		return nil, answer{}, err
	}
	p.faultFree, p.faulty = ff.Bytes(), fy.Bytes()
	return p, reportAnswer(len(res.Regular.Reports), len(res.Recovery.Reports), res.Reports), nil
}

// offlineSetup records every item's trace pair. The prediction pass's own
// reports are the reference: offline analysis must reproduce their keys.
func offlineSetup(cfg *config) (*state, error) {
	st := &state{pairs: map[string]*tracePair{}, refs: map[string]answer{}}
	for _, it := range cfg.items {
		p, ref, err := observePair(cfg, it)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.name, err)
		}
		st.pairs[it.name], st.refs[it.name] = p, ref
	}
	return st, nil
}

func offlineOp(_ *config, st *state, it item, rec *recorder) (answer, error) {
	p := st.pairs[it.name]
	graph := func(data []byte) (*hb.Graph, error) {
		s := rec.begin("trace.open")
		src, err := trace.NewSource(bytes.NewReader(data))
		rec.end(s)
		if err != nil {
			return nil, err
		}
		s = rec.begin("hb.from_source")
		g, err := hb.NewFromSource(src)
		rec.end(s)
		return g, err
	}
	gf, err := graph(p.faultFree)
	if err != nil {
		return answer{}, err
	}
	gy, err := graph(p.faulty)
	if err != nil {
		return answer{}, err
	}
	return analyse(it, gf, gy, detect.Options{Windows: p.windows}, rec), nil
}

// --- evaluation ---

func evaluationOp(cfg *config, _ *state, it item, rec *recorder) (answer, error) {
	s := rec.begin("core.detect")
	res, err := fcatch.Detect(it.w, detectOpts(cfg))
	rec.end(s)
	if err != nil {
		return answer{}, err
	}
	var outs []*fcatch.TriggerOutcome
	if rec == nil {
		outs = fcatch.Trigger(it.w, res)
	} else {
		// fcatch.Trigger at Parallelism 1, one span per report.
		tg := inject.NewTriggerer(it.w, cfg.seed)
		for _, r := range res.Reports {
			s := rec.begin("inject.trigger")
			outs = append(outs, tg.Trigger(r))
			rec.end(s)
		}
	}

	a := reportAnswer(len(res.Regular.Reports), len(res.Recovery.Reports), res.Reports)
	var bugs []string
	for _, o := range outs {
		a.Runs += len(o.ByAction)
		rec.add("inject.attempts", int64(len(o.ByAction)))
		if o.Class == fcatch.TrueBug {
			rec.add("inject.truebugs", 1)
		}
		if spec := fcatch.MatchSpec(it.w.Name(), o); spec != nil {
			bugs = append(bugs, spec.ID)
		}
	}
	rec.add("inject.reports", int64(len(outs)))
	slices.Sort(bugs)
	a.Bugs = strings.Join(slices.Compact(bugs), ",")

	ev := fcatch.EvalRun{Order: []string{it.w.Name()}, Outcomes: map[string][]*fcatch.TriggerOutcome{it.w.Name(): outs}}
	row := ev.Table3()[0]
	a.Table3 = fmt.Sprintf("%d/%d/%d/%d %d/%d/%d/%d",
		row.RegOld, row.RegNew, row.RegExp, row.RegFalse, row.RecOld, row.RecNew, row.RecExp, row.RecFalse)
	return a, nil
}

// --- campaign and dist ---

// campaignConfig is the configuration campaign and dist share, so that the
// difference between the two workloads is the wire and nothing else.
func campaignConfig(cfg *config, parallelism int) fcatch.CampaignConfig {
	return fcatch.CampaignConfig{Strategy: fcatch.StrategyCoverage, Seed: cfg.seed, Budget: cfg.budget, Parallelism: parallelism}
}

func distOptions(workers int) fcatch.DistOptions {
	return fcatch.DistOptions{Workers: workers, WorkerParallelism: 1, LeaseSize: 4}
}

func campaignAnswer(res *fcatch.CampaignResult) (answer, error) {
	data, err := json.Marshal(res.Corpus)
	if err != nil {
		return answer{}, err
	}
	sum := sha256.Sum256(data)
	return answer{
		Campaign: [4]int{res.Runs, res.FailureRuns, res.UniqueFailures(), res.NovelBehaviors},
		Corpus:   hex.EncodeToString(sum[:]),
		Runs:     res.ExecutedRuns,
	}, nil
}

func campaignOp(cfg *config, _ *state, it item, rec *recorder) (answer, error) {
	s := rec.begin("campaign.run")
	res, err := fcatch.Campaign(it.w, campaignConfig(cfg, cfg.workers))
	rec.end(s)
	if err != nil {
		return answer{}, err
	}
	return campaignAnswer(res)
}

// distSetup runs the in-process campaign once per item: every dist op must
// return the same counts and the same corpus bytes.
func distSetup(cfg *config) (*state, error) {
	st := &state{refs: map[string]answer{}}
	for _, it := range cfg.items {
		ref, err := campaignOp(cfg, nil, it, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.name, err)
		}
		st.refs[it.name] = ref
	}
	return st, nil
}

func distOp(cfg *config, _ *state, it item, rec *recorder) (answer, error) {
	s := rec.begin("dist.run")
	res, err := fcatch.DistributedCampaign(context.Background(), it.w, campaignConfig(cfg, 1), distOptions(cfg.workers))
	rec.end(s)
	if err != nil {
		return answer{}, err
	}
	return campaignAnswer(res)
}
