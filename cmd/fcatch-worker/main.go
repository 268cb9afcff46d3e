// Command fcatch-worker joins a distributed fault-injection campaign as one
// worker: it connects to a coordinator started with `fcatch-campaign -serve`,
// executes the leases of injection plans it is granted, and exits when the
// campaign drains.
//
//	fcatch-campaign -workload MR1 -runs 4000 -serve 127.0.0.1:9093 &
//	fcatch-worker -addr 127.0.0.1:9093 -parallelism 2
//
// Workers are stateless and interchangeable: they can join late, be killed
// mid-lease, or be restarted — the coordinator reassigns forfeited leases and
// the final corpus is byte-identical regardless. A worker holding a lease
// keeps it by finishing plans: one that finishes none for the coordinator's
// lease timeout (15s), crashed, frozen or livelocked, loses it, while an idle
// worker may stay silent indefinitely. Leases carry full fault
// scenarios (including composite multi-fault plans from `-scenarios`
// campaigns); the versioned handshake rejects a peer from a different
// protocol generation rather than silently dropping scenario events.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"fcatch"
	"fcatch/internal/cliflag"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9093", "coordinator address (host:port)")
	name := flag.String("name", "", "worker name in coordinator logs (default: worker-<pid>)")
	parallelism := cliflag.Parallelism(flag.CommandLine, "plans per lease")
	metricsOut := cliflag.Metrics(flag.CommandLine)
	flag.Parse()
	reg := cliflag.NewRegistry(*metricsOut, false)

	// SIGINT/SIGTERM cancel the context; the worker drops its connection and
	// the coordinator reassigns whatever lease it held.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := fcatch.RunCampaignWorker(ctx, fcatch.CampaignWorkerConfig{
		Addr:        *addr,
		Name:        *name,
		Parallelism: *parallelism,
		Metrics:     reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fcatch-worker:", err)
		os.Exit(1)
	}
	if werr := cliflag.WriteMetrics(*metricsOut, reg); werr != nil {
		fmt.Fprintln(os.Stderr, "fcatch-worker:", werr)
		os.Exit(1)
	}
}
