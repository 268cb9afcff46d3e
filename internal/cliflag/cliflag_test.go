package cliflag_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fcatch/internal/campaign"
	"fcatch/internal/cliflag"
	"fcatch/internal/obs"
)

// TestWriteMetricsRoundTrips: the one -metrics writer takes both kinds of
// value the tools write — a registry and a campaign's run manifest — and
// what it writes decodes back to the same value.
func TestWriteMetricsRoundTrips(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	reg.Counter("campaign/runs").Add(7)

	regPath := filepath.Join(dir, "metrics.json")
	if err := cliflag.WriteMetrics(regPath, reg); err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	decode(t, regPath, &snap)
	if !reflect.DeepEqual(snap, reg.Snapshot()) {
		t.Fatalf("registry decoded as %+v, want %+v", snap, reg.Snapshot())
	}

	m := campaign.Manifest{Workload: "MR1", Strategy: "random", Seed: 3, Budget: 10, Runs: 10,
		Failures: map[string]int{"hang:am/main@loop:awaitTasks": 2}, Metrics: reg.Snapshot()}
	manPath := filepath.Join(dir, "manifest.json")
	if err := cliflag.WriteMetrics(manPath, &m); err != nil {
		t.Fatal(err)
	}
	var got campaign.Manifest
	decode(t, manPath, &got)
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest decoded as %+v, want %+v", got, m)
	}

	if err := cliflag.WriteMetrics("", reg); err != nil {
		t.Fatalf("empty path must be a no-op: %v", err)
	}
	if err := cliflag.WriteMetrics(filepath.Join(dir, "missing", "m.json"), &m); err == nil {
		t.Fatal("writing into a missing directory succeeded")
	}
}

func decode(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
