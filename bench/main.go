// Command bench is the repository's benchmark: five workloads that each cycle
// whole sweeps over the six Table 1 items in a closed loop with one client,
// end-to-end metrics measured with tracing off, per-layer metrics from a
// traced run, and a checker that compares every op's answer with
// expected.json. See README.md in this directory.
//
//	go run ./bench -workload predict            # untraced, end-to-end metrics
//	go run ./bench -workload predict -trace 1   # traced, per-layer metrics
//	go run ./bench -all                         # both, for every workload
//	go run ./bench -agree                       # two sets of runs must agree
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: predict, offline, evaluation, campaign or dist")
		seed     = flag.Int64("seed", 1, "seeds the order in which each sweep visits the items")
		simSeed  = flag.Int64("sim-seed", 1, "simulator and campaign seed; expected.json pins the answers at seed 1")
		seconds  = flag.Float64("seconds", 16, "how long the measured sweeps run")
		traced   = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the recorded spans to this file")
		all      = flag.Bool("all", false, "run every workload, untraced and traced, each in a process of its own")
		agree    = flag.Bool("agree", false, "run every workload twice and fail if a metric differs by more than its bound")
	)
	flag.Parse()

	var err error
	switch {
	case *all:
		err = runAll(*seed, *simSeed, *seconds)
	case *agree:
		err = runAgree(*seed, *simSeed, *seconds)
	default:
		err = runOne(*name, *seed, *simSeed, *seconds, *traced == 1, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its result line.
func runOne(name string, seed, simSeed int64, seconds float64, traced bool, traceOut string) error {
	wl, err := workloadByName(name)
	if err != nil {
		return err
	}
	exp, err := parseExpected(expectedJSON)
	if err != nil {
		return err
	}
	// The host is shared and small: never use more than two cores.
	workers := min(2, runtime.NumCPU())
	cfg := &config{seed: simSeed, order: rand.New(rand.NewSource(seed)), seconds: seconds, workers: workers, items: allItems(), budget: campaignBudget}

	fmt.Printf("bench: workload=%s trace=%t seed=%d sim_seed=%d seconds=%g\n", wl.name, traced, seed, simSeed, seconds)
	fmt.Printf("bench: %s %s/%s nproc=%d GOMAXPROCS=%d workers=%d commit=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), wl.procs(cfg), workers, commit())

	var res *result
	defs := endToEnd
	if traced {
		defs = perLayer
		if cfg.scratch, err = os.MkdirTemp(".", ".bench_tmp-"); err != nil {
			return err
		}
		defer os.RemoveAll(cfg.scratch)
		var rec *recorder
		if res, rec, err = measureTraced(cfg, wl, exp); err != nil {
			return err
		}
		if traceOut != "" {
			if err := writeSpans(traceOut, rec); err != nil {
				return err
			}
		}
	} else if res, err = measure(cfg, wl, exp); err != nil {
		return err
	}

	fmt.Printf("bench: sweeps=%d ops=%d (one latency sample each) attempted=%d failed=%d fail_share=%g\n",
		res.sweeps, res.ops, res.attempted, res.failed, float64(res.failed)/float64(res.attempted))
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Printf("%-36s %16.6g %s\n", d.Name, v, d.Unit)
		line.Metrics[d.Name] = value{v, d.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// commit names the checkout's git commit, or "unknown" outside a repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// child re-executes this binary for one run, so that neither heap nor
// listener state leaks from one workload into the next. It echoes the run's
// output and returns its parsed result line.
func child(name string, seed, simSeed int64, seconds float64, traced int) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-sim-seed", strconv.FormatInt(simSeed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &line, nil
}

// runAll prints every end-to-end and per-layer metric of every workload.
func runAll(seed, simSeed int64, seconds float64) error {
	failed := 0
	for _, wl := range workloads {
		for traced := 0; traced <= 1; traced++ {
			line, err := child(wl.name, seed, simSeed, seconds, traced)
			if err != nil {
				return err
			}
			failed += line.Failed
			fmt.Println()
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// runAgree runs every workload twice and compares each end-to-end metric's
// two values: they may differ by at most the metric's bound, as a share of
// their mean, and no op may fail.
func runAgree(seed, simSeed int64, seconds float64) error {
	bad := 0
	for _, wl := range workloads {
		a, err := child(wl.name, seed, simSeed, seconds, 0)
		if err != nil {
			return err
		}
		b, err := child(wl.name, seed, simSeed, seconds, 0)
		if err != nil {
			return err
		}
		fmt.Printf("agree: %s failed ops %d and %d\n", wl.name, a.Failed, b.Failed)
		bad += a.Failed + b.Failed
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			spread := math.Abs(va-vb) / ((va + vb) / 2)
			verdict := "ok"
			if spread > d.Bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("agree: %-10s %-16s %14.6g %14.6g %s  differ by %.2f%%, bound %.0f%%  %s\n",
				wl.name, d.Name, va, vb, d.Unit, spread*100, d.Bound*100, verdict)
		}
		fmt.Println()
	}
	if bad > 0 {
		return fmt.Errorf("%d disagreements or failed ops", bad)
	}
	return nil
}
