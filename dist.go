package fcatch

import (
	"context"

	"fcatch/internal/dist"
)

// Re-exported distributed-campaign types, so downstream users only import
// this package.
type (
	// DistOptions parameterizes a distributed campaign's coordinator: listen
	// address, in-process worker count and fan-out, lease size, and the
	// callbacks and registry that observe it. Failure handling has no
	// options: a worker that shows no progress on its lease for 15s loses
	// it, and the campaign aborts once one lease has failed four times.
	DistOptions = dist.Options
	// CampaignWorkerConfig parameterizes one campaign worker process: the
	// coordinator address, its name, its fan-out per lease, how it resolves
	// the workload, and its metrics registry.
	CampaignWorkerConfig = dist.WorkerConfig
)

// DistributedCampaign is RunCampaign from scratch on a coordinator.
func DistributedCampaign(ctx context.Context, w Workload, cfg CampaignConfig, opts DistOptions) (*CampaignResult, error) {
	return RunCampaign(ctx, w, cfg, nil, &opts)
}

// RunCampaignWorker connects to a coordinator and executes leases until the
// campaign drains or ctx is cancelled. When cfg.Resolve is nil the worker
// resolves workload names through the built-in registry (ByName).
func RunCampaignWorker(ctx context.Context, cfg CampaignWorkerConfig) error {
	if cfg.Resolve == nil {
		cfg.Resolve = ByName
	}
	return dist.RunWorker(ctx, cfg)
}
