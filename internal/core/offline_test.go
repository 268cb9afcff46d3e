package core_test

import (
	"path/filepath"
	"testing"

	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/hb"
	"fcatch/internal/trace"
)

// TestOfflineDetectionFromSavedTraces validates the CLI's two-phase
// workflow: observe + save the trace pair, then reload from disk and run
// both detectors — the reports must match the in-memory pipeline exactly.
func TestOfflineDetectionFromSavedTraces(t *testing.T) {
	w := mapreduce.NewMR1()
	obs, err := core.Observe(w, core.DefaultOptions())
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}

	dir := t.TempDir()
	ffPath := filepath.Join(dir, "ff.trace")
	fyPath := filepath.Join(dir, "fy.trace")
	if err := obs.FaultFree.Save(ffPath); err != nil {
		t.Fatal(err)
	}
	if err := obs.Faulty.Save(fyPath); err != nil {
		t.Fatal(err)
	}

	ff, err := trace.Load(ffPath)
	if err != nil {
		t.Fatal(err)
	}
	fy, err := trace.Load(fyPath)
	if err != nil {
		t.Fatal(err)
	}

	live := detect.DetectRegularOpts(hb.New(obs.FaultFree), w.Name(), detect.Options{})
	loaded := detect.DetectRegularOpts(hb.New(ff), w.Name(), detect.Options{})
	if len(live.Reports) != len(loaded.Reports) || live.Pruned != loaded.Pruned {
		t.Fatalf("crash-regular detection diverges across the disk round trip: %d vs %d reports",
			len(live.Reports), len(loaded.Reports))
	}
	for i := range live.Reports {
		if live.Reports[i].Key() != loaded.Reports[i].Key() {
			t.Fatalf("report %d differs:\n  live:   %s\n  loaded: %s", i, live.Reports[i], loaded.Reports[i])
		}
	}

	liveRec := detect.DetectRecoveryOpts(hb.New(obs.FaultFree), hb.New(obs.Faulty), w.Name(), detect.Options{})
	loadedRec := detect.DetectRecoveryOpts(hb.New(ff), hb.New(fy), w.Name(), detect.Options{})
	if len(liveRec.Reports) != len(loadedRec.Reports) || liveRec.Pruned != loadedRec.Pruned {
		t.Fatalf("crash-recovery detection diverges across the disk round trip: %d vs %d reports",
			len(liveRec.Reports), len(loadedRec.Reports))
	}
	for i := range liveRec.Reports {
		a, b := liveRec.Reports[i], loadedRec.Reports[i]
		if a.Key() != b.Key() || a.WInFaultyRun != b.WInFaultyRun || a.W.Occurrence != b.W.Occurrence {
			t.Fatalf("recovery report %d differs:\n  live:   %s\n  loaded: %s", i, a, b)
		}
	}
}
