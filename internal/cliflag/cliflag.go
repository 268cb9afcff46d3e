// Package cliflag centralizes flag definitions shared by the fcatch
// command-line tools, so their semantics and help text cannot drift apart.
package cliflag

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fcatch/internal/obs"
)

// Parallelism registers the shared -parallelism flag on fs. The contract is
// the same in every tool: 0 = GOMAXPROCS, 1 = sequential, and results are
// byte-identical at any setting — parallelism is purely a throughput knob.
// what names the unit of concurrency for the tool's help text ("runs",
// "injection runs", ...).
func Parallelism(fs *flag.FlagSet, what string) *int {
	return fs.Int("parallelism", 0,
		"concurrent "+what+" (0 = GOMAXPROCS, 1 = sequential; results identical at any setting)")
}

// Metrics registers the shared -metrics flag on fs: a path to write a JSON
// metrics snapshot to when the tool exits ("" = off). The contract is the
// same in every tool: metrics are observe-only, so all other outputs are
// byte-identical whether the flag is set or not.
func Metrics(fs *flag.FlagSet) *string {
	return fs.String("metrics", "",
		"write a JSON metrics snapshot to this file on exit (observe-only; other outputs are unchanged)")
}

// NewRegistry returns a live registry when a -metrics path (or another
// consumer, per extra) demands one, and the nil no-op registry otherwise.
func NewRegistry(path string, extra bool) *obs.Registry {
	if path == "" && !extra {
		return nil
	}
	return obs.New()
}

// WriteMetrics writes v — a metrics registry or a campaign's run manifest —
// to path as indented JSON. A no-op when path is empty; "-" writes to stdout.
func WriteMetrics(path string, v interface{ WriteJSON(io.Writer) error }) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return v.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing metrics: %w", err)
	}
	if err := v.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing metrics: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing metrics: %w", err)
	}
	return nil
}
