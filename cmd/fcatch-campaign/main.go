// Command fcatch-campaign drives the fault-injection campaign engine: explore
// a workload's fault space with a search strategy, persist the corpus, resume
// it later, or diff two campaigns.
//
//	fcatch-campaign -workload MR1 -strategy coverage-guided -runs 400
//	fcatch-campaign -workload MR1 -runs 400 -corpus mr1.json   # save corpus
//	fcatch-campaign -resume mr1.json -runs 800                 # continue it
//	fcatch-campaign -diff a.json -diff2 b.json                 # compare finds
//	fcatch-campaign -workload MR1 -runs 400 -scenarios crash+recovery-crash
//	fcatch-campaign -workload MR1 -runs 4000 -workers 4        # same campaign, in-process worker fleet
//	fcatch-campaign -workload MR1 -runs 4000 -serve :9093      # same campaign, external fcatch-workers
//
// Every campaign takes one path: -workers/-serve only decide where injection
// runs execute, and the corpus is byte-identical either way. SIGINT/SIGTERM
// keeps the complete batches: the run renders what it has, saves it with
// -corpus as a partial corpus that -resume continues, and exits 130.
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
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fcatch"
	"fcatch/internal/cliflag"
)

func main() {
	workload := flag.String("workload", "", "workload to run the campaign on (-resume takes it from the corpus)")
	strategy := flag.String("strategy", fcatch.StrategyCoverage, "search strategy: random | exhaustive-site | coverage-guided")
	runs := flag.Int("runs", 400, "run budget (total, including a resumed prefix)")
	seed := flag.Int64("seed", 1, "deterministic base seed")
	parallelism := cliflag.Parallelism(flag.CommandLine, "injection runs, per worker under -workers")
	batch := flag.Int("batch", 0, "max runs between strategy re-weightings (0 = strategy default)")
	corpus := flag.String("corpus", "", "save the campaign corpus (schema version 3: plans are -scenario event lists) to this JSON file; an interrupted campaign saves its complete batches")
	resume := flag.String("resume", "", "resume the campaign recorded in this corpus file (schema version 3 only); workload, strategy, seed and scenarios come from the file")
	diffA := flag.String("diff", "", "diff mode: first corpus file (schema version 3 only)")
	diffB := flag.String("diff2", "", "diff mode: second corpus file")
	serve := flag.String("serve", "", "distributed: listen on this host:port for fcatch-worker processes")
	workers := flag.Int("workers", 0, "distributed: spawn this many in-process workers (usable with or without -serve)")
	leaseSize := flag.Int("lease", 0, "distributed: plans per lease (0 = default; corpus identical at any setting)")
	scenarioFlag := flag.String("scenarios", "", "comma-separated composite-scenario enumerators to append to the fault space: "+
		strings.Join(fcatch.CampaignScenarioNames(), " | "))
	metricsOut := cliflag.Metrics(flag.CommandLine)
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus-text metrics on http://<host:port>/metrics while the campaign runs")
	progress := flag.Bool("progress", false, "print a progress line to stderr after every committed batch")
	flag.Parse()

	if *diffA != "" || *diffB != "" {
		if *diffA == "" || *diffB == "" {
			fatal(fmt.Errorf("-diff and -diff2 must both be given"))
		}
		runDiff(*diffA, *diffB)
		return
	}

	// A resumed campaign takes its identity from the corpus; flags only
	// extend the budget.
	scenarios := splitScenarios(*scenarioFlag)
	var prior *fcatch.CampaignCorpus
	if *resume != "" {
		var err error
		if prior, err = fcatch.LoadCampaignCorpus(*resume); err != nil {
			fatal(err)
		}
		*workload, *strategy, *seed = prior.Workload, prior.Strategy, prior.Seed
		if len(scenarios) == 0 {
			scenarios = prior.Scenarios
		}
		fmt.Fprintf(os.Stderr, "fcatch-campaign: resuming %s/%s (seed %d) from %d cached run(s)\n",
			*workload, *strategy, *seed, len(prior.Entries))
	}
	if *workload == "" {
		fatal(fmt.Errorf("-workload is required (or -resume); see `fcatch list`"))
	}
	w, err := fcatch.ByName(*workload)
	if err != nil {
		fatal(err)
	}

	// Observe-only instrumentation: the corpus is byte-identical with or
	// without it. reg stays nil (the no-op registry) unless a flag reads it.
	reg := cliflag.NewRegistry(*metricsOut, *metricsAddr != "")
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(fmt.Errorf("metrics listen %s: %w", *metricsAddr, err))
		}
		fmt.Fprintf(os.Stderr, "fcatch-campaign: serving metrics on http://%s/metrics\n", ln.Addr())
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg)
		go func() { _ = http.Serve(ln, mux) }()
	}
	cfg := fcatch.CampaignConfig{
		Strategy:    *strategy,
		Seed:        *seed,
		Budget:      *runs,
		Parallelism: *parallelism,
		BatchSize:   *batch,
		Scenarios:   scenarios,
		Metrics:     reg,
	}
	if *progress {
		cfg.Progress = func(p fcatch.CampaignProgress) {
			fmt.Fprintf(os.Stderr,
				"fcatch-campaign: %s/%s %d/%d runs (%d cached, %d executed) %.0f runs/s, %d distinct failure(s), dedupe %.0f%%\n",
				p.Workload, p.Strategy, p.Runs, p.Budget, p.Cached, p.Executed,
				p.RunsPerSec(), p.DistinctFailures, 100*p.DedupeRate())
		}
	}

	// -serve/-workers move the injection runs to workers (external and/or
	// in-process); everything else about the campaign is the same.
	var opts *fcatch.DistOptions
	if *serve != "" || *workers > 0 {
		opts = &fcatch.DistOptions{
			Addr:              *serve,
			Workers:           *workers,
			WorkerParallelism: *parallelism,
			LeaseSize:         *leaseSize,
			Metrics:           reg,
			OnListen: func(addr string) {
				fmt.Fprintf(os.Stderr, "fcatch-campaign: serving leases on %s (%d in-process worker(s))\n", addr, *workers)
			},
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	res, err := fcatch.RunCampaign(ctx, w, cfg, prior, opts)
	elapsed := time.Since(start)
	interrupted := errors.Is(err, context.Canceled) && res != nil
	if err != nil && !interrupted {
		fatal(err)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "fcatch-campaign: interrupted at %d/%d run(s); complete batches kept\n", res.Runs, *runs)
	}
	fmt.Print(fcatch.RenderCampaign(res))
	if *corpus != "" {
		if err := res.Corpus.Save(*corpus); err != nil {
			fatal(err)
		}
		what := "corpus"
		if interrupted {
			what = "partial corpus (resume with -resume)"
		}
		fmt.Fprintf(os.Stderr, "fcatch-campaign: saved %s (%d runs) to %s\n", what, res.Runs, *corpus)
	}
	if *metricsOut != "" {
		m := fcatch.NewCampaignManifest(res, *runs, elapsed, reg)
		if err := cliflag.WriteMetrics(*metricsOut, &m); err != nil {
			fatal(err)
		}
		if *metricsOut != "-" {
			fmt.Fprintf(os.Stderr, "fcatch-campaign: wrote run manifest to %s\n", *metricsOut)
		}
	}
	if interrupted {
		os.Exit(130)
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
