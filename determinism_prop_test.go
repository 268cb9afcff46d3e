package fcatch_test

// Property tests for the scheduler: simulated threads are coroutines that
// may resume on any goroutine, so the one thing that must never leak into an
// outcome or a trace is real concurrency. These tests pin that the
// observation phase is a pure function of (workload, seed) — across repeated
// runs and across GOMAXPROCS settings, including the parallel pipeline path.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"fcatch"
	"fcatch/internal/core"
	"fcatch/internal/sim"
)

// observeFingerprint runs the observation phase and returns a normalized
// fingerprint: both encoded traces as saved, plus both outcomes with their
// wall-clock Elapsed (the only legitimately nondeterministic field) cleared.
func observeFingerprint(t *testing.T, wl string) (ff, fy []byte, outcomes string) {
	t.Helper()
	opts := core.Options{Seed: 1, Phase: fcatch.PhaseBegin, Tracing: sim.TraceSelective, Parallelism: 0}
	obs, err := core.Observe(fcatch.MustWorkload(wl), opts)
	if err != nil {
		t.Fatalf("observe %s: %v", wl, err)
	}
	var bf, by bytes.Buffer
	if err := obs.FaultFree.Encode(&bf); err != nil {
		t.Fatalf("encode fault-free: %v", err)
	}
	if err := obs.Faulty.Encode(&by); err != nil {
		t.Fatalf("encode faulty: %v", err)
	}
	of, oy := *obs.FaultFreeOutcome, *obs.FaultyOutcome
	of.Elapsed, oy.Elapsed = 0, 0
	return bf.Bytes(), by.Bytes(), fmt.Sprintf("%+v\n%+v", of, oy)
}

// TestObservationDeterministicAcrossGOMAXPROCS pins that the same seed yields
// identical outcomes and byte-identical traces whether the host runs the
// simulation on one OS thread or several, and across repeated runs at each
// setting.
func TestObservationDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, wl := range []string{"TOY", "MR1"} {
		var baseFF, baseFY []byte
		var baseOut string
		for i, procs := range []int{1, 4, 1, 4} {
			runtime.GOMAXPROCS(procs)
			ff, fy, out := observeFingerprint(t, wl)
			if i == 0 {
				baseFF, baseFY, baseOut = ff, fy, out
				continue
			}
			if !bytes.Equal(ff, baseFF) {
				t.Errorf("%s: fault-free trace bytes differ at GOMAXPROCS=%d (run %d)", wl, procs, i)
			}
			if !bytes.Equal(fy, baseFY) {
				t.Errorf("%s: faulty trace bytes differ at GOMAXPROCS=%d (run %d)", wl, procs, i)
			}
			if out != baseOut {
				t.Errorf("%s: outcomes differ at GOMAXPROCS=%d (run %d):\n got %s\nwant %s", wl, procs, i, out, baseOut)
			}
		}
	}
}
