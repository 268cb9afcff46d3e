package fcatch

import (
	"context"

	"fcatch/internal/dist"
)

// Re-exported distributed-campaign types, so downstream users only import
// this package.
type (
	// DistOptions parameterizes a distributed campaign's coordinator: listen
	// address, in-process worker count, lease sizing, and failure handling.
	DistOptions = dist.Options
	// CampaignWorkerConfig parameterizes one campaign worker process.
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
