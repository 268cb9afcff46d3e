package fcatch

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fcatch/internal/campaign"
	"fcatch/internal/dist"
)

// Re-exported campaign types, so downstream users only import this package.
type (
	// CampaignConfig parameterizes a fault-injection campaign.
	CampaignConfig = campaign.Config
	// CampaignResult summarizes a finished campaign.
	CampaignResult = campaign.Result
	// CampaignCorpus is the persistent per-run record of a campaign.
	CampaignCorpus = campaign.Corpus
	// CampaignPlan is one candidate injection (step crash or site point).
	CampaignPlan = campaign.Plan
	// CampaignDiff compares two campaigns' findings.
	CampaignDiff = campaign.Diff
	// CampaignProgress is the point-in-time view handed to
	// CampaignConfig.Progress after every committed batch.
	CampaignProgress = campaign.Progress
	// CampaignManifest is the machine-readable end-of-run record a campaign
	// writes with -metrics.
	CampaignManifest = campaign.Manifest
)

// Campaign strategy names.
const (
	StrategyRandom     = campaign.StrategyRandom
	StrategyExhaustive = campaign.StrategyExhaustive
	StrategyCoverage   = campaign.StrategyCoverage
)

// Composite-scenario enumerator names (CampaignConfig.Scenarios).
const (
	ScenarioRecoveryCrash = campaign.ScenarioRecoveryCrash
	ScenarioCrashDrop     = campaign.ScenarioCrashDrop
)

// CampaignScenarioNames lists every composite-scenario enumerator.
func CampaignScenarioNames() []string { return campaign.ScenarioNames() }

// RunCampaign runs a fault-injection campaign over the workload's fault space
// with the configured search strategy. A non-nil prior corpus is replayed as
// a cached prefix (no re-simulation) and the campaign runs live up to
// cfg.Budget. A nil opts executes the runs in this process at
// cfg.Parallelism; otherwise a coordinator streams leases of plans over TCP
// to whichever workers connect (opts.Workers spawns in-process ones) and
// merges their results in proposal order.
//
// Identical (workload, seed, budget, strategy) inputs produce a
// byte-identical corpus at any Parallelism, worker count, join order or lease
// interleaving — including workers crashing or hanging mid-lease, whose
// leases are reassigned. On context cancellation RunCampaign returns the
// partial result of the complete batches alongside the context error; its
// corpus is a valid prior for a later run in either mode.
func RunCampaign(ctx context.Context, w Workload, cfg CampaignConfig, prior *CampaignCorpus, opts *DistOptions) (*CampaignResult, error) {
	if opts == nil {
		return campaign.Run(ctx, w, cfg, prior, nil)
	}
	return dist.Serve(ctx, w, cfg, prior, *opts)
}

// Campaign is RunCampaign in this process, from scratch, to completion.
func Campaign(w Workload, cfg CampaignConfig) (*CampaignResult, error) {
	return RunCampaign(context.Background(), w, cfg, nil, nil)
}

// ResumeCampaign is RunCampaign in this process, continuing a saved corpus.
func ResumeCampaign(w Workload, cfg CampaignConfig, prior *CampaignCorpus) (*CampaignResult, error) {
	return RunCampaign(context.Background(), w, cfg, prior, nil)
}

// NewCampaignManifest assembles the end-of-run manifest for a finished
// campaign: identity, totals, throughput, and the metrics snapshot.
func NewCampaignManifest(res *CampaignResult, budget int, elapsed time.Duration, reg *Metrics) CampaignManifest {
	return campaign.NewManifest(res, budget, elapsed, reg)
}

// LoadCampaignCorpus reads a corpus saved with CampaignCorpus.Save.
func LoadCampaignCorpus(path string) (*CampaignCorpus, error) {
	return campaign.LoadCorpus(path)
}

// DiffCampaigns compares the distinct failure symptoms two campaigns found.
func DiffCampaigns(a, b *CampaignCorpus) CampaignDiff {
	return campaign.DiffCorpora(a, b)
}

// StrategyCell is one strategy's outcome on one workload in the comparison.
type StrategyCell struct {
	Strategy string
	// Runs actually executed (site strategies stop when the space runs out).
	Runs        int
	FailureRuns int
	// Distinct is the number of distinct (non-expected) failure signatures.
	Distinct int
}

// StrategyRow is one workload's row of the strategy-comparison experiment.
type StrategyRow struct {
	Workload string
	Cells    []StrategyCell
	// FCatchBugs / FCatchRuns summarize FCatch-directed triggering on the
	// same workload: reports confirmed as true bugs, and the executions
	// spent (two observation runs plus every trigger replay).
	FCatchBugs int
	FCatchRuns int
}

// CompareStrategies runs the extended Section 8.3 experiment: every campaign
// strategy at the same run budget on each workload, next to FCatch-directed
// triggering. Workloads are processed sequentially (each campaign already
// fans its runs across parallelism workers).
func CompareStrategies(targets []Workload, budget int, seed int64, parallelism int) ([]StrategyRow, error) {
	rows := make([]StrategyRow, 0, len(targets))
	for _, w := range targets {
		row := StrategyRow{Workload: w.Name()}
		for _, strat := range campaign.StrategyNames() {
			res, err := Campaign(w, CampaignConfig{
				Strategy: strat, Seed: seed, Budget: budget, Parallelism: parallelism,
			})
			if err != nil {
				return nil, fmt.Errorf("campaign %s on %s: %w", strat, w.Name(), err)
			}
			row.Cells = append(row.Cells, StrategyCell{
				Strategy:    strat,
				Runs:        res.Runs,
				FailureRuns: res.FailureRuns,
				Distinct:    res.UniqueFailures(),
			})
		}

		opts := DefaultOptions()
		opts.Seed = seed
		opts.Parallelism = parallelism
		det, err := Detect(w, opts)
		if err != nil {
			return nil, fmt.Errorf("detect on %s: %w", w.Name(), err)
		}
		row.FCatchRuns = 2 // the observation pair
		for _, o := range Trigger(w, det) {
			row.FCatchRuns += len(o.ByAction)
			if o.Class == TrueBug {
				row.FCatchBugs++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderStrategyComparison renders the strategy-comparison table: distinct
// failure signatures (and failed/total runs) per strategy at one budget,
// against FCatch-directed triggering's true bugs per execution spent.
func RenderStrategyComparison(rows []StrategyRow, budget int) string {
	header := []string{"Workload"}
	if len(rows) > 0 {
		for _, c := range rows[0].Cells {
			header = append(header, c.Strategy)
		}
	}
	header = append(header, "fcatch-directed")
	var out [][]string
	for _, r := range rows {
		cells := []string{r.Workload}
		for _, c := range r.Cells {
			cells = append(cells, fmt.Sprintf("%d (%d/%d)", c.Distinct, c.FailureRuns, c.Runs))
		}
		cells = append(cells, fmt.Sprintf("%d bugs (%d runs)", r.FCatchBugs, r.FCatchRuns))
		out = append(out, cells)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Distinct failures found per strategy at a budget of %d runs\n", budget)
	b.WriteString("(cells: distinct signatures (failed runs / runs executed); site strategies\nstop early when the enumerated fault space is exhausted).\n")
	b.WriteString(renderTable(header, out))
	return b.String()
}

// RenderCampaign renders one campaign result in the RenderRandom style.
func RenderCampaign(res *CampaignResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Campaign %s on %s (seed %d): %d/%d runs failed, %d distinct failure(s), %d novel behavior(s)",
		res.Strategy, res.Workload, res.Seed, res.FailureRuns, res.Runs, res.UniqueFailures(), res.NovelBehaviors)
	if res.SpacePoints > 0 {
		fmt.Fprintf(&b, ", fault space %d point(s)", res.SpacePoints)
	}
	b.WriteByte('\n')
	for _, sig := range res.Signatures() {
		fmt.Fprintf(&b, "  %3dx %s\n", res.Failures[sig], sig)
	}
	return b.String()
}
