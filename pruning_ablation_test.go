package fcatch_test

import (
	"fmt"
	"strings"
	"testing"

	"fcatch"
)

func TestPruningAblationMonotone(t *testing.T) {
	opts := fcatch.DefaultOptions()
	rows, err := fcatch.PruningAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	rendered := fcatch.RenderPruningAblation(rows)
	t.Log("\n" + rendered)

	// The rendered Total row is the column sums of the rows.
	var sums [5]int
	for _, r := range rows {
		for i, n := range []int{r.Full, r.NoTimeout, r.NoDependence, r.NoImpact, r.NoneAtAll} {
			sums[i] += n
		}
	}
	want := fmt.Sprint("Total ", sums[:])
	var got string
	for _, line := range strings.Split(rendered, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "Total" {
			got = fmt.Sprint("Total ", f[1:])
		}
	}
	if got != want {
		t.Errorf("rendered total row %q, want the column sums %q", got, want)
	}

	totalFull, totalNone := 0, 0
	for _, r := range rows {
		// The full configuration is the production detector: its count is
		// the report count of a plain detection pass.
		res, err := fcatch.Detect(fcatch.MustWorkload(r.Workload), opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Full != len(res.Reports) {
			t.Errorf("%s: full = %d, want %d (the reports of fcatch.Detect)", r.Workload, r.Full, len(res.Reports))
		}
		// DESIGN.md invariant: disabling a pruning stage never removes a report.
		for name, n := range map[string]int{
			"no-timeout": r.NoTimeout, "no-dependence": r.NoDependence,
			"no-impact": r.NoImpact, "none": r.NoneAtAll,
		} {
			if n < r.Full {
				t.Errorf("%s/%s: %d reports < full %d (pruning removal lost reports)", r.Workload, name, n, r.Full)
			}
		}
		if r.NoneAtAll < r.NoImpact || r.NoneAtAll < r.NoDependence || r.NoneAtAll < r.NoTimeout {
			t.Errorf("%s: disabling everything must dominate single-stage ablations", r.Workload)
		}
		totalFull += r.Full
		totalNone += r.NoneAtAll
	}
	// Section 8.4: without the analyses, false positives explode. (The
	// paper's 5x/40x counts raw pairs; after deduplication the growth in
	// distinct reports is smaller but still severalfold.)
	if totalNone < totalFull*5/2 {
		t.Errorf("unpruned reports %d vs %d pruned: expected several-fold growth", totalNone, totalFull)
	}
}
