// Command fcatch runs the FCatch pipeline from the command line:
//
//	fcatch list                           # show the benchmark workloads
//	fcatch detect  -workload MR1          # observe + detect, print reports
//	fcatch trigger -workload MR1          # detect, then trigger every report
//	fcatch trace   -workload MR1 -out mr1 # save the observed trace pair
package main

import (
	"flag"
	"fmt"
	"os"

	"fcatch"
	"fcatch/internal/cliflag"
	"fcatch/internal/core"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: fcatch <command> [flags]

commands:
  list      list the benchmark workloads (Table 1)
  detect    observe correct runs and predict TOF bugs
  trigger   detect, then trigger and classify every report
  repro     reproduce one catalogued bug end to end (-bug MR1)
  trace     observe and save the correct-run trace pair to disk
  grep      observe, then print trace records matching filters

common flags: -workload <name> -seed <n> -phase begin|middle|end -parallelism <n>
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	workload := fs.String("workload", "MR1", "benchmark workload name (see `fcatch list`)")
	seed := fs.Int64("seed", 1, "deterministic scheduler seed")
	phase := fs.String("phase", "begin", "observation crash phase: begin|middle|end")
	out := fs.String("out", "", "output path prefix for saved traces")
	bug := fs.String("bug", "", "catalogued bug ID for `repro` (e.g. MR1, HB5)")
	kind := fs.String("kind", "", "grep: op kind filter (e.g. msg-send, kv-update)")
	res := fs.String("res", "", "grep: resource substring filter")
	pid := fs.String("pid", "", "grep: process filter (exact, or prefix with trailing *)")
	faulty := fs.Bool("faulty", false, "grep: search the faulty run instead of the fault-free one")
	in := fs.String("in", "", "grep: search a saved trace file instead of re-observing the workload")
	scenario := fs.String("scenario", "", "faulty-run fault scenario, e.g. \"step=120,restart=40;delay=48\" (default: the workload's single crash)")
	explain := fs.Bool("explain", false, "detect: print the per-rule pruning kill table and per-candidate decision trail")
	parallelism := cliflag.Parallelism(fs, "trigger replays")
	metricsOut := cliflag.Metrics(fs)
	_ = fs.Parse(os.Args[2:])

	if cmd == "repro" {
		id := *bug
		if id == "" && fs.NArg() > 0 {
			id = fs.Arg(0)
		}
		if id == "" {
			fatal(fmt.Errorf("repro needs -bug <ID>; known bugs: CA1..CA3, HB1..HB6, MR1..MR5, ZK"))
		}
		rep, err := fcatch.Reproduce(id, core.Options{Seed: *seed, Tracing: sim.TraceSelective, Parallelism: *parallelism})
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.Render())
		return
	}

	if cmd == "list" {
		fmt.Print(fcatch.RenderTable1())
		return
	}

	w, err := fcatch.ByName(*workload)
	if err != nil {
		fatal(err)
	}
	opts := core.Options{Seed: *seed, Tracing: sim.TraceSelective, Parallelism: *parallelism}
	opts.Detect.Explain = *explain
	opts.Metrics = cliflag.NewRegistry(*metricsOut, false)
	if *scenario != "" {
		sc, err := fcatch.ParseScenario(*scenario)
		if err != nil {
			fatal(err)
		}
		opts.Scenario = sc
	}
	switch *phase {
	case "begin":
		opts.Phase = fcatch.PhaseBegin
	case "middle":
		opts.Phase = fcatch.PhaseMiddle
	case "end":
		opts.Phase = fcatch.PhaseEnd
	default:
		fatal(fmt.Errorf("unknown phase %q", *phase))
	}

	switch cmd {
	case "detect":
		res, err := fcatch.Detect(w, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d TOF bug report(s) from %d+%d trace records\n",
			w.Name(), len(res.Reports), res.Observation.FaultFree.Len(), res.Observation.Faulty.Len())
		for i, r := range res.Reports {
			fmt.Printf("  %2d. w%-2d %s\n", i+1, r.WindowID, r)
		}
		if len(res.Windows) > 1 {
			fmt.Print(fcatch.RenderWindows(res))
		}
		fmt.Print(fcatch.RenderCompound(res))
		p := fcatch.PruneRow(w.Name(), res)
		fmt.Printf("pruned: loop-timeout=%d wait-timeout=%d dependence=%d impact=%d\n",
			p.LoopTimeout, p.WaitTimeout, p.Dependence, p.Impact)
		if *explain {
			fmt.Print(fcatch.RenderExplain(res))
		}

	case "trigger":
		res, err := fcatch.Detect(w, opts)
		if err != nil {
			fatal(err)
		}
		for _, o := range fcatch.Trigger(w, res) {
			fmt.Printf("  [%s] %s\n      -> %s", o.Class, o.Report, o.FailureKind)
			if o.Detail != "" {
				fmt.Printf(" (%s)", o.Detail)
			}
			fmt.Println()
		}
		for _, o := range fcatch.TriggerCompounds(w, res) {
			fmt.Printf("  [%s] %s\n", o.Class, o.Compound)
			if o.Class != fcatch.Benign {
				fmt.Printf("      -> %s (%s) under policy %s\n      -> scenario %q\n",
					o.FailureKind, o.Detail, o.Variant, fcatch.FormatScenario(o.Scenario))
			}
		}

	case "trace":
		obs, err := core.Observe(w, opts)
		if err != nil {
			fatal(err)
		}
		prefix := *out
		if prefix == "" {
			prefix = w.Name()
		}
		ff, fy := prefix+".faultfree.trace", prefix+".faulty.trace"
		if err := obs.FaultFree.Save(ff); err != nil {
			fatal(err)
		}
		if err := obs.Faulty.Save(fy); err != nil {
			fatal(err)
		}
		crash := "no crash"
		if c := obs.Faulty.Filter(trace.Query{Kinds: []trace.Kind{trace.KCrash}}); len(c) > 0 {
			crash = fmt.Sprintf("crash of %s at step %d", obs.Faulty.Str(c[0].Aux), c[0].TS)
		}
		fmt.Printf("saved %s (%d records) and %s (%d records, %s) in %s format\n",
			ff, obs.FaultFree.Len(), fy, obs.Faulty.Len(), crash, trace.FormatMagic)

	case "grep":
		q := trace.Query{ResContains: *res, PID: *pid}
		if *kind != "" {
			k, ok := trace.KindByName(*kind)
			if !ok {
				fatal(fmt.Errorf("unknown op kind %q", *kind))
			}
			q.Kinds = []trace.Kind{k}
		}
		var tr *trace.Trace
		if *in != "" {
			var err error
			if tr, err = trace.Load(*in); err != nil {
				fatal(err)
			}
		} else {
			obs, err := core.Observe(w, opts)
			if err != nil {
				fatal(err)
			}
			tr = obs.FaultFree
			if *faulty {
				tr = obs.Faulty
			}
		}
		for _, r := range tr.Filter(q) {
			fmt.Println(tr.Format(r))
		}

	default:
		usage()
	}

	if err := cliflag.WriteMetrics(*metricsOut, opts.Metrics); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fcatch:", err)
	os.Exit(1)
}
