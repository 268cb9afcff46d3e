package fcatch

import (
	"context"
	"fmt"
	"strings"

	"fcatch/internal/detect"
	"fcatch/internal/parallel"
)

// PruningAblationRow compares report counts with all analyses on against
// each analysis disabled — quantifying the Section 8.4 claim that without
// the fault-tolerance analyses, false positives grow ~5× (crash-regular)
// and ~40× (crash-recovery).
type PruningAblationRow struct {
	Workload string
	// Reports with every analysis enabled (the production setting).
	Full int
	// Reports with timeout pruning off / dependence pruning off / impact
	// estimation off / everything off.
	NoTimeout, NoDependence, NoImpact, NoneAtAll int
}

// pruningConfigs are the ablation's detector configurations, in column
// order; PruningAblationRow.cells lists a row's counts in the same order.
var pruningConfigs = []struct {
	name string
	d    detect.Options
}{
	{"full", detect.Options{}},
	{"no-timeout", detect.Options{DisableTimeoutPruning: true}},
	{"no-dependence", detect.Options{DisableDependencePruning: true}},
	{"no-impact", detect.Options{DisableImpactPruning: true}},
	{"none", detect.Options{DisableTimeoutPruning: true, DisableDependencePruning: true, DisableImpactPruning: true}},
}

// cells points at the row's counts, one per entry of pruningConfigs.
func (r *PruningAblationRow) cells() []*int {
	return []*int{&r.Full, &r.NoTimeout, &r.NoDependence, &r.NoImpact, &r.NoneAtAll}
}

// PruningAblation runs detection on every workload under each pruning
// configuration. All workload×configuration passes fan out together across
// opts.Parallelism workers; each count lands in its own row cell, so the
// table is deterministic at any setting.
func PruningAblation(opts Options) ([]PruningAblationRow, error) {
	ws := Workloads()
	nc := len(pruningConfigs)
	counts, err := parallel.MapErr(context.Background(), opts.Parallelism, len(ws)*nc, func(i int) (int, error) {
		w, cfg := ws[i/nc], pruningConfigs[i%nc]
		o := opts
		o.Detect = cfg.d
		res, err := Detect(w, o)
		if err != nil {
			return 0, fmt.Errorf("fcatch: pruning ablation %s/%s: %w", w.Name(), cfg.name, err)
		}
		return len(res.Reports), nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]PruningAblationRow, len(ws))
	for wi, w := range ws {
		rows[wi].Workload = w.Name()
		for ci, n := range rows[wi].cells() {
			*n = counts[wi*nc+ci]
		}
	}
	return rows, nil
}

// RenderPruningAblation renders the ablation as a table.
func RenderPruningAblation(rows []PruningAblationRow) string {
	line := func(r *PruningAblationRow) []string {
		cells := []string{r.Workload}
		for _, n := range r.cells() {
			cells = append(cells, fmt.Sprint(*n))
		}
		return cells
	}
	header := []string{""}
	for _, cfg := range pruningConfigs {
		header = append(header, cfg.name)
	}
	var out [][]string
	totals := PruningAblationRow{Workload: "Total"}
	sums := totals.cells()
	for i := range rows {
		out = append(out, line(&rows[i]))
		for ci, n := range rows[i].cells() {
			*sums[ci] += *n
		}
	}
	out = append(out, line(&totals))
	var b strings.Builder
	b.WriteString("Pruning-analysis ablation (Section 8.4): reports per configuration.\n")
	b.WriteString(renderTable(header, out))
	if totals.Full > 0 {
		fmt.Fprintf(&b, "growth without any pruning: %.1fx\n", float64(totals.NoneAtAll)/float64(totals.Full))
	}
	return b.String()
}
