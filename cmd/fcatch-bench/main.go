// Command fcatch-bench regenerates every table and experiment of the
// paper's evaluation section:
//
//	fcatch-bench -all                 # everything below, in order
//	fcatch-bench -table 1..5          # one table
//	fcatch-bench -sensitivity         # §8.1.2 crash-point sensitivity
//	fcatch-bench -ablation            # §8.2 exhaustive-tracing ablation
//	fcatch-bench -randinject [-runs N]# §8.3 random-injection baseline
//	fcatch-bench -campaign [-runs N]  # §8.3 extended: campaign strategy comparison
//	fcatch-bench -triggering          # §8.4 fault-type matrix
//
// -parallelism bounds the pipeline's worker pool (0 = GOMAXPROCS, 1 =
// sequential) for the tables, the pruning ablation, the random-injection
// baseline and the campaign comparison; -sensitivity and -ablation always
// use every core. Results are identical at any setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"fcatch"
	"fcatch/internal/core"
	"fcatch/internal/sim"
)

func main() {
	table := flag.Int("table", 0, "render table N (1-5)")
	all := flag.Bool("all", false, "run every experiment")
	sensitivity := flag.Bool("sensitivity", false, "crash-point sensitivity study (§8.1.2)")
	ablation := flag.Bool("ablation", false, "exhaustive-tracing ablation (§8.2)")
	pruning := flag.Bool("pruning", false, "pruning-analysis ablation (§8.4)")
	randinject := flag.Bool("randinject", false, "random fault-injection baseline (§8.3)")
	campaignCmp := flag.Bool("campaign", false, "campaign strategy comparison (§8.3 extended: random vs exhaustive vs coverage-guided vs FCatch)")
	triggering := flag.Bool("triggering", false, "fault-type trigger matrix (§8.4)")
	runs := flag.Int("runs", 400, "runs per workload for -randinject")
	seed := flag.Int64("seed", 1, "deterministic scheduler seed")
	parallelism := flag.Int("parallelism", 0, "pipeline worker bound (0 = GOMAXPROCS, 1 = sequential)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" || *memprofile != "" {
		defer profileTo(*cpuprofile, *memprofile)()
	}

	opts := core.Options{Seed: *seed, Phase: fcatch.PhaseBegin, Tracing: sim.TraceSelective, MeasureBaseline: true, Parallelism: *parallelism}

	needEval := *all || *triggering || (*table >= 2 && *table <= 5)
	var eval *fcatch.EvalRun
	if needEval {
		var err error
		fmt.Fprintln(os.Stderr, "fcatch-bench: running detection + triggering on all six workloads...")
		eval, err = fcatch.RunEvaluation(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fcatch-bench:", err)
			os.Exit(1)
		}
	}

	show := func(n int) bool { return *all || *table == n }
	if show(1) {
		fmt.Println(fcatch.RenderTable1())
	}
	if show(2) {
		fmt.Println(eval.RenderTable2())
	}
	if show(3) {
		fmt.Println(eval.RenderTable3())
	}
	if show(4) {
		fmt.Println(eval.RenderTable4())
	}
	if show(5) {
		fmt.Println(eval.RenderTable5())
	}
	if *all || *sensitivity {
		s, err := fcatch.Sensitivity(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fcatch-bench:", err)
			os.Exit(1)
		}
		fmt.Println(fcatch.RenderSensitivity(s))
	}
	if *all || *ablation {
		fmt.Println(fcatch.RenderAblation(fcatch.AblationTraceAll(*seed)))
	}
	if *all || *pruning {
		rows, err := fcatch.PruningAblation(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fcatch-bench:", err)
			os.Exit(1)
		}
		fmt.Println(fcatch.RenderPruningAblation(rows))
	}
	if *all || *randinject {
		var results []*fcatch.CampaignResult
		for _, w := range fcatch.Workloads() {
			fmt.Fprintf(os.Stderr, "fcatch-bench: random injection on %s (%d runs)...\n", w.Name(), *runs)
			r, err := fcatch.Campaign(w, fcatch.CampaignConfig{
				Strategy: fcatch.StrategyRandom, Seed: *seed, Budget: *runs, Parallelism: *parallelism,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "fcatch-bench:", err)
				os.Exit(1)
			}
			results = append(results, r)
		}
		fmt.Println(fcatch.RenderRandom(results))
	}
	if *all || *campaignCmp {
		fmt.Fprintln(os.Stderr, "fcatch-bench: comparing campaign strategies on all six workloads...")
		rows, err := fcatch.CompareStrategies(fcatch.Workloads(), *runs, *seed, *parallelism)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fcatch-bench:", err)
			os.Exit(1)
		}
		fmt.Println(fcatch.RenderStrategyComparison(rows, *runs))
	}
	if *all || *triggering {
		fmt.Println(eval.RenderTriggerMatrix())
	}
	if !*all && *table == 0 && !*sensitivity && !*ablation && !*pruning && !*randinject && !*campaignCmp && !*triggering {
		flag.Usage()
	}
}

// profileTo starts CPU profiling (when cpu is non-empty) and returns the
// function that stops it and writes the heap profile (when mem is non-empty).
// Profiles are flushed on normal termination; error exits skip them.
func profileTo(cpu, mem string) func() {
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "fcatch-bench:", err)
		os.Exit(1)
	}
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle the final live set before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}
	}
}
