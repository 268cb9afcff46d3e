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

// PruningAblation runs detection on every workload under each pruning
// configuration. All workload×configuration passes fan out together across
// opts.Parallelism workers; each count lands in its own row field, so the
// table is deterministic at any setting.
func PruningAblation(opts Options) ([]PruningAblationRow, error) {
	configs := []struct {
		name string
		d    detect.Options
	}{
		{"full", detect.Options{}},
		{"no-timeout", detect.Options{DisableTimeoutPruning: true}},
		{"no-dependence", detect.Options{DisableDependencePruning: true}},
		{"no-impact", detect.Options{DisableImpactPruning: true}},
		{"none", detect.Options{DisableTimeoutPruning: true, DisableDependencePruning: true, DisableImpactPruning: true}},
	}
	ws := Workloads()
	counts, err := parallel.MapErr(context.Background(), opts.Parallelism, len(ws)*len(configs), func(i int) (int, error) {
		w, cfg := ws[i/len(configs)], configs[i%len(configs)]
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
		row := &rows[wi]
		row.Workload = w.Name()
		for ci, cfg := range configs {
			n := counts[wi*len(configs)+ci]
			switch cfg.name {
			case "full":
				row.Full = n
			case "no-timeout":
				row.NoTimeout = n
			case "no-dependence":
				row.NoDependence = n
			case "no-impact":
				row.NoImpact = n
			case "none":
				row.NoneAtAll = n
			}
		}
	}
	return rows, nil
}

// RenderPruningAblation renders the ablation as a table.
func RenderPruningAblation(rows []PruningAblationRow) string {
	var out [][]string
	totals := PruningAblationRow{Workload: "Total"}
	for _, r := range rows {
		out = append(out, []string{
			r.Workload, fmt.Sprint(r.Full), fmt.Sprint(r.NoTimeout),
			fmt.Sprint(r.NoDependence), fmt.Sprint(r.NoImpact), fmt.Sprint(r.NoneAtAll),
		})
		totals.Full += r.Full
		totals.NoTimeout += r.NoTimeout
		totals.NoDependence += r.NoDependence
		totals.NoImpact += r.NoImpact
		totals.NoneAtAll += r.NoneAtAll
	}
	out = append(out, []string{
		totals.Workload, fmt.Sprint(totals.Full), fmt.Sprint(totals.NoTimeout),
		fmt.Sprint(totals.NoDependence), fmt.Sprint(totals.NoImpact), fmt.Sprint(totals.NoneAtAll),
	})
	var b strings.Builder
	b.WriteString("Pruning-analysis ablation (Section 8.4): reports per configuration.\n")
	b.WriteString(renderTable([]string{"", "full", "no-timeout", "no-dependence", "no-impact", "none"}, out))
	if totals.Full > 0 {
		fmt.Fprintf(&b, "growth without any pruning: %.1fx\n", float64(totals.NoneAtAll)/float64(totals.Full))
	}
	return b.String()
}
