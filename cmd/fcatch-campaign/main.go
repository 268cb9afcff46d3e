// Command fcatch-campaign drives the coverage-guided fault-injection
// campaign engine: explore a workload's fault space with a search strategy,
// persist the corpus, resume it later, diff two campaigns, or render the
// strategy-comparison table (the extended Section 8.3 experiment).
//
//	fcatch-campaign -workload MR1 -strategy coverage-guided -runs 400
//	fcatch-campaign -workload MR1 -runs 400 -corpus mr1.json   # save corpus
//	fcatch-campaign -resume mr1.json -runs 800                 # continue it
//	fcatch-campaign -diff a.json -diff2 b.json                 # compare finds
//	fcatch-campaign -compare -runs 400                         # all workloads × all strategies
//	fcatch-campaign -workload MR1 -runs 400 -scenarios crash+recovery-crash
//	fcatch-campaign -workload MR1 -runs 4000 -workers 4        # distributed, in-process fleet
//	fcatch-campaign -workload MR1 -runs 4000 -serve :9093      # distributed, external fcatch-workers
//
// A corpus file is schema version 3 — each entry's plan is the JSON array of
// its fault events, whose key is the `fcatch detect -scenario` string that
// replays it; -resume and -diff refuse any other version by number.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fcatch"
	"fcatch/internal/cliflag"
)

// instrumentation bundles the observability flags: the shared registry (nil
// when nothing asked for one — the no-op fast path), the -metrics manifest
// path, the distributed -metrics-addr endpoint, and -progress stderr lines.
// All of it is observe-only: the corpus is byte-identical either way.
type instrumentation struct {
	reg      *fcatch.Metrics
	out      string
	addr     string
	progress bool
}

// hook returns the Config.Progress callback, or nil when -progress is off.
func (ins *instrumentation) hook() func(fcatch.CampaignProgress) {
	if !ins.progress {
		return nil
	}
	return func(p fcatch.CampaignProgress) {
		fmt.Fprintf(os.Stderr,
			"fcatch-campaign: %s/%s %d/%d runs (%d cached, %d executed) %.0f runs/s, %d distinct failure(s), dedupe %.0f%%\n",
			p.Workload, p.Strategy, p.Runs, p.Budget, p.Cached, p.Executed,
			p.RunsPerSec(), p.DistinctFailures, 100*p.DedupeRate())
	}
}

// writeManifest writes the end-of-run manifest when -metrics was given.
func (ins *instrumentation) writeManifest(res *fcatch.CampaignResult, budget int, elapsed time.Duration) {
	if ins.out == "" {
		return
	}
	m := fcatch.NewCampaignManifest(res, budget, elapsed, ins.reg)
	w := os.Stdout
	if ins.out != "-" {
		f, err := os.Create(ins.out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := m.WriteJSON(w); err != nil {
		fatal(err)
	}
	if ins.out != "-" {
		fmt.Fprintf(os.Stderr, "fcatch-campaign: wrote run manifest to %s\n", ins.out)
	}
}

func main() {
	workload := flag.String("workload", "", "one workload (default with -compare: all six)")
	strategy := flag.String("strategy", fcatch.StrategyCoverage, "search strategy: random | exhaustive-site | coverage-guided")
	runs := flag.Int("runs", 400, "run budget (total, including a resumed prefix)")
	seed := flag.Int64("seed", 1, "deterministic base seed")
	parallelism := cliflag.Parallelism(flag.CommandLine, "injection runs")
	batch := flag.Int("batch", 0, "max runs between strategy re-weightings (0 = strategy default)")
	corpus := flag.String("corpus", "", "save the campaign corpus (schema version 3: plans are -scenario event lists) to this JSON file")
	resume := flag.String("resume", "", "resume the campaign recorded in this corpus file (schema version 3 only)")
	spaceTrace := flag.String("space-trace", "", "enumerate the fault space from this saved fault-free trace (same workload/seed) instead of re-simulating it")
	compare := flag.Bool("compare", false, "render the strategy-comparison table instead of one campaign")
	diffA := flag.String("diff", "", "diff mode: first corpus file (schema version 3 only)")
	diffB := flag.String("diff2", "", "diff mode: second corpus file")
	serve := flag.String("serve", "", "distributed: listen on this host:port for fcatch-worker processes")
	workers := flag.Int("workers", 0, "distributed: spawn this many in-process workers (usable with or without -serve)")
	leaseSize := flag.Int("lease", 0, "distributed: plans per lease (0 = default; corpus identical at any setting)")
	scenarioFlag := flag.String("scenarios", "", "comma-separated composite-scenario enumerators to append to the fault space: "+
		strings.Join(fcatch.CampaignScenarioNames(), " | "))
	metricsOut := cliflag.Metrics(flag.CommandLine)
	metricsAddr := flag.String("metrics-addr", "", "distributed: serve Prometheus-text metrics on http://<host:port>/metrics while the campaign runs")
	progress := flag.Bool("progress", false, "print a progress line to stderr after every committed batch")
	flag.Parse()
	scenarios := splitScenarios(*scenarioFlag)
	ins := &instrumentation{
		reg:      cliflag.NewRegistry(*metricsOut, *metricsAddr != ""),
		out:      *metricsOut,
		addr:     *metricsAddr,
		progress: *progress,
	}

	switch {
	case *diffA != "" || *diffB != "":
		if *diffA == "" || *diffB == "" {
			fatal(fmt.Errorf("-diff and -diff2 must both be given"))
		}
		runDiff(*diffA, *diffB)

	case *compare:
		runCompare(*workload, *runs, *seed, *parallelism)

	case *serve != "" || *workers > 0:
		runDistributed(*workload, *strategy, *runs, *seed, *parallelism, *batch,
			*corpus, *resume, *serve, *workers, *leaseSize, scenarios, ins)

	default:
		runCampaign(*workload, *strategy, *runs, *seed, *parallelism, *batch, *corpus, *resume, *spaceTrace, scenarios, ins)
	}
}

// splitScenarios parses the comma-separated -scenarios value.
func splitScenarios(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// loadResume loads a prior corpus and pins the campaign identity from it
// (flags only extend the budget on resume).
func loadResume(resume string, workload, strategy *string, seed *int64) *fcatch.CampaignCorpus {
	if resume == "" {
		return nil
	}
	prior, err := fcatch.LoadCampaignCorpus(resume)
	if err != nil {
		fatal(err)
	}
	*workload, *strategy, *seed = prior.Workload, prior.Strategy, prior.Seed
	fmt.Fprintf(os.Stderr, "fcatch-campaign: resuming %s/%s (seed %d) from %d cached run(s)\n",
		*workload, *strategy, *seed, len(prior.Entries))
	return prior
}

// runDistributed drives a coordinator: the campaign engine runs here, leases
// stream to in-process (-workers) and/or external (-serve + fcatch-worker)
// workers, and the merged corpus is byte-identical to a local run. SIGINT
// drains gracefully: complete batches are kept, and with -corpus the partial
// corpus is saved as a resume point.
func runDistributed(workload, strategy string, runs int, seed int64, parallelism, batch int, corpusOut, resume, serve string, workers, leaseSize int, scenarios []string, ins *instrumentation) {
	prior := loadResume(resume, &workload, &strategy, &seed)
	if prior != nil && len(scenarios) == 0 {
		scenarios = prior.Scenarios
	}
	if workload == "" {
		fatal(fmt.Errorf("-workload is required (or -resume); see `fcatch list`"))
	}
	w, err := fcatch.ByName(workload)
	if err != nil {
		fatal(err)
	}

	cfg := fcatch.CampaignConfig{
		Strategy:  strategy,
		Seed:      seed,
		Budget:    runs,
		BatchSize: batch,
		Scenarios: scenarios,
		Metrics:   ins.reg,
		Progress:  ins.hook(),
	}
	opts := fcatch.DistOptions{
		Addr:              serve,
		Workers:           workers,
		WorkerParallelism: parallelism,
		LeaseSize:         leaseSize,
		Metrics:           ins.reg,
		MetricsAddr:       ins.addr,
		OnListen: func(addr string) {
			fmt.Fprintf(os.Stderr, "fcatch-campaign: serving leases on %s (%d in-process worker(s))\n", addr, workers)
		},
		OnMetricsListen: func(addr string) {
			fmt.Fprintf(os.Stderr, "fcatch-campaign: serving metrics on http://%s/metrics\n", addr)
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	res, err := fcatch.ResumeDistributedCampaign(ctx, w, cfg, prior, opts)
	elapsed := time.Since(start)
	interrupted := errors.Is(err, context.Canceled) && res != nil
	if err != nil && !interrupted {
		fatal(err)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "fcatch-campaign: interrupted at %d/%d run(s); complete batches kept\n", res.Runs, runs)
	}
	fmt.Print(fcatch.RenderCampaign(res))
	if corpusOut != "" {
		if err := res.Corpus.Save(corpusOut); err != nil {
			fatal(err)
		}
		what := "corpus"
		if interrupted {
			what = "partial corpus (resume with -resume)"
		}
		fmt.Fprintf(os.Stderr, "fcatch-campaign: saved %s (%d runs) to %s\n", what, res.Runs, corpusOut)
	}
	ins.writeManifest(res, runs, elapsed)
	if interrupted {
		os.Exit(130)
	}
}

func runCampaign(workload, strategy string, runs int, seed int64, parallelism, batch int, corpusOut, resume, spaceTrace string, scenarios []string, ins *instrumentation) {
	prior := loadResume(resume, &workload, &strategy, &seed)
	if prior != nil && len(scenarios) == 0 {
		scenarios = prior.Scenarios
	}
	if workload == "" {
		fatal(fmt.Errorf("-workload is required (or -resume / -compare); see `fcatch list`"))
	}
	w, err := fcatch.ByName(workload)
	if err != nil {
		fatal(err)
	}

	cfg := fcatch.CampaignConfig{
		Strategy:    strategy,
		Seed:        seed,
		Budget:      runs,
		Parallelism: parallelism,
		BatchSize:   batch,
		Scenarios:   scenarios,
		Metrics:     ins.reg,
		Progress:    ins.hook(),
	}
	if spaceTrace != "" {
		if cfg.SpaceTrace, err = fcatch.LoadTrace(spaceTrace); err != nil {
			fatal(err)
		}
	}
	start := time.Now()
	res, err := fcatch.ResumeCampaign(w, cfg, prior)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Print(fcatch.RenderCampaign(res))

	if corpusOut != "" {
		if err := res.Corpus.Save(corpusOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fcatch-campaign: saved corpus (%d runs) to %s\n", res.Runs, corpusOut)
	}
	ins.writeManifest(res, runs, elapsed)
}

func runCompare(workload string, runs int, seed int64, parallelism int) {
	targets := fcatch.Workloads()
	if workload != "" {
		w, err := fcatch.ByName(workload)
		if err != nil {
			fatal(err)
		}
		targets = []fcatch.Workload{w}
	}
	fmt.Fprintf(os.Stderr, "fcatch-campaign: comparing %d strategies + fcatch-directed on %d workload(s), %d runs each...\n",
		3, len(targets), runs)
	rows, err := fcatch.CompareStrategies(targets, runs, seed, parallelism)
	if err != nil {
		fatal(err)
	}
	fmt.Print(fcatch.RenderStrategyComparison(rows, runs))
}

func runDiff(pathA, pathB string) {
	a, err := fcatch.LoadCampaignCorpus(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := fcatch.LoadCampaignCorpus(pathB)
	if err != nil {
		fatal(err)
	}
	d := fcatch.DiffCampaigns(a, b)
	fmt.Printf("A = %s (%s/%s seed %d, %d runs)\n", pathA, a.Workload, a.Strategy, a.Seed, len(a.Entries))
	fmt.Printf("B = %s (%s/%s seed %d, %d runs)\n", pathB, b.Workload, b.Strategy, b.Seed, len(b.Entries))
	section := func(label string, sigs []string) {
		fmt.Printf("%s (%d):\n", label, len(sigs))
		for _, s := range sigs {
			fmt.Printf("  %s\n", s)
		}
	}
	section("only in A", d.OnlyA)
	section("only in B", d.OnlyB)
	section("shared", d.Shared)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fcatch-campaign:", err)
	os.Exit(1)
}
