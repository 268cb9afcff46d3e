package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

//go:embed expected.json
var expectedJSON []byte

// expected is the hand-written known-answer file. It pins counts and verdicts,
// never corpus or trace bytes, so a deliberate golden regeneration that keeps
// the findings does not break the benchmark.
type expected struct {
	// BenchmarkBugs are the eight TaxDC bugs, per item. The evaluation
	// workload must confirm them as true bugs at every seed.
	BenchmarkBugs map[string][]string `json:"benchmark_bugs"`
	// Seed1 holds the answers that are pinned at seed 1 only.
	Seed1 map[string]expectedItem `json:"seed1"`
}

type expectedItem struct {
	// Table3 is the EXPERIMENTS.md "measured" cell of the item's row.
	Table3 string `json:"table3"`
	// TrueBugs are the Table 2 IDs triggering must confirm on this item.
	TrueBugs []string `json:"true_bugs"`
	// Report counts per detector, the same for predict, offline, evaluation.
	RegularReports  int `json:"regular_reports"`
	RecoveryReports int `json:"recovery_reports"`
	// Campaign is (Runs, FailureRuns, UniqueFailures, NovelBehaviors) of the
	// 40-run coverage-guided campaign, the same for campaign and dist.
	Campaign [4]int `json:"campaign"`
}

func parseExpected(data []byte) (*expected, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var e expected
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// checker decides whether each op failed. An op fails when it returns an
// error, when its answer differs from expected.json, or when it differs from
// the first answer the checker saw for the item in this run. Set-up feeds it
// the sibling path's answers first (offline against predict, dist against
// campaign), which makes those the reference.
type checker struct {
	exp      *expected
	workload string
	// pinned says the seed-1 answers apply: seed 1 at the standard budget.
	pinned bool
	refs   map[string]answer

	attempted, failed int
}

func newChecker(exp *expected, cfg *config, wl *workload) *checker {
	return &checker{exp: exp, workload: wl.name, refs: map[string]answer{},
		pinned: cfg.seed == 1 && cfg.budget == campaignBudget}
}

func (c *checker) check(it item, a answer, err error) {
	c.attempted++
	if err == nil {
		err = c.verify(it.name, a)
	}
	if err != nil {
		c.failed++
		if c.failed <= 5 {
			fmt.Fprintf(os.Stderr, "bench: %s %s failed: %v\n", c.workload, it.name, err)
		}
	}
}

func (c *checker) verify(name string, a answer) error {
	if ref, ok := c.refs[name]; !ok {
		c.refs[name] = a
	} else if a != ref {
		return fmt.Errorf("answer %+v differs from the item's reference %+v", a, ref)
	}
	if c.workload == "evaluation" {
		for _, id := range c.exp.BenchmarkBugs[name] {
			if !strings.Contains(","+a.Bugs+",", ","+id+",") {
				return fmt.Errorf("benchmark bug %s not confirmed (confirmed: %s)", id, a.Bugs)
			}
		}
	}
	if !c.pinned {
		return nil
	}
	e, ok := c.exp.Seed1[name]
	if !ok {
		return fmt.Errorf("expected.json has no seed-1 entry for %s", name)
	}
	switch c.workload {
	case "campaign", "dist":
		if a.Campaign != e.Campaign {
			return fmt.Errorf("campaign counts %v, expected %v", a.Campaign, e.Campaign)
		}
		return nil
	case "evaluation":
		if a.Table3 != e.Table3 {
			return fmt.Errorf("Table 3 cells %q, expected %q", a.Table3, e.Table3)
		}
		if want := strings.Join(e.TrueBugs, ","); a.Bugs != want {
			return fmt.Errorf("confirmed bugs %q, expected %q", a.Bugs, want)
		}
	}
	if a.Regular != e.RegularReports || a.Recovery != e.RecoveryReports {
		return fmt.Errorf("%d crash-regular and %d crash-recovery reports, expected %d and %d",
			a.Regular, a.Recovery, e.RegularReports, e.RecoveryReports)
	}
	return nil
}
