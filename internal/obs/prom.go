package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Prometheus text exposition (version 0.0.4) for a registry snapshot:
// counters become `<name>_total` counters, spans become `<name>_count` /
// `<name>_ns_total` / `<name>_ns_max` series, and histograms become native
// Prometheus histograms with cumulative `_bucket{le="..."}` series. Metric
// names are sanitized from the registry's slash-separated naming ("dist/
// leases/requeued" -> "fcatch_dist_leases_requeued").

// promName sanitizes a registry name into a legal Prometheus metric name:
// every character outside [a-zA-Z0-9_:] becomes '_', and the fcatch_ prefix
// namespaces the series.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("fcatch_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus writes the registry's snapshot in the Prometheus text
// format. Series are emitted in sorted name order, so equal registry states
// produce equal bytes.
func (g *Registry) WritePrometheus(w io.Writer) error {
	snap := g.Snapshot()
	var b strings.Builder

	for _, name := range sortedKeys(snap.Counters) {
		mn := promName(name) + "_total"
		fmt.Fprintf(&b, "# HELP %s Counter %q.\n# TYPE %s counter\n%s %d\n",
			mn, name, mn, mn, snap.Counters[name])
	}

	for _, name := range sortedKeys(snap.Spans) {
		s := snap.Spans[name]
		mn := promName(name)
		fmt.Fprintf(&b, "# HELP %s_count Completions of phase span %q.\n# TYPE %s_count counter\n%s_count %d\n",
			mn, name, mn, mn, s.Count)
		fmt.Fprintf(&b, "# HELP %s_ns_total Cumulative nanoseconds in phase span %q.\n# TYPE %s_ns_total counter\n%s_ns_total %d\n",
			mn, name, mn, mn, s.TotalNs)
		fmt.Fprintf(&b, "# HELP %s_ns_max Longest single span of phase %q in nanoseconds.\n# TYPE %s_ns_max gauge\n%s_ns_max %d\n",
			mn, name, mn, mn, s.MaxNs)
	}

	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		mn := promName(name)
		fmt.Fprintf(&b, "# HELP %s Histogram %q (power-of-two buckets).\n# TYPE %s histogram\n", mn, name, mn)
		cum := int64(0)
		for _, bk := range h.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", mn, bk.Le, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", mn, h.Count)
		fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", mn, h.Sum, mn, h.Count)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// ServeHTTP answers any request with the registry's current Prometheus text,
// so a registry mounts directly at /metrics. It only reads a snapshot:
// scrapes never perturb what is being measured.
func (g *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.WritePrometheus(w)
}
