package fcatch_test

import (
	"context"
	"fmt"
	"testing"

	"fcatch"
	"fcatch/internal/inject"
	"fcatch/internal/parallel"
	"fcatch/internal/sim"
)

// TestObservationPicksSizeStallRule: a selective observation's fault-free
// run is the run a Triggerer would otherwise make to size its replays' stall
// rule, so the triggerer built for a result takes the observation's picks and
// sizes the rule exactly as measuring does, at seeds 1–10 on all six
// workloads. An exhaustive observation's fault-free run ticks differently,
// so its triggerer measures its own.
func TestObservationPicksSizeStallRule(t *testing.T) {
	const seeds = 10
	ws := fcatch.Workloads()
	errs, err := parallel.Map(context.Background(), 0, len(ws)*seeds, func(i int) error {
		w, seed := ws[i/seeds], int64(i%seeds+1)
		opts := fcatch.DefaultOptions()
		opts.Seed = seed
		res, err := fcatch.Detect(w, opts)
		if err != nil {
			return err
		}
		tg := fcatch.ResultTriggerer(w, res)
		picks := res.Observation.FaultFreeOutcome.Picks
		if tg.FaultFreePicks != picks || picks == 0 {
			return fmt.Errorf("%s seed %d: triggerer has FaultFreePicks %d, the observation %d", w.Name(), seed, tg.FaultFreePicks, picks)
		}
		if got, measured := tg.StallPicks(), inject.NewTriggerer(w, seed).StallPicks(); got != measured {
			return fmt.Errorf("%s seed %d: StallPicks %d from the observation, %d measured", w.Name(), seed, got, measured)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errs {
		if e != nil {
			t.Error(e)
		}
	}

	w := fcatch.MustWorkload("MR1")
	opts := fcatch.DefaultOptions()
	opts.Tracing = sim.TraceExhaustive
	res, err := fcatch.Detect(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	tg := fcatch.ResultTriggerer(w, res)
	measured := inject.NewTriggerer(w, opts.Seed).StallPicks()
	if tg.FaultFreePicks != 0 || tg.StallPicks() != measured {
		t.Fatalf("exhaustive observation: FaultFreePicks %d, StallPicks %d, want 0 and the measured %d",
			tg.FaultFreePicks, tg.StallPicks(), measured)
	}
	sel, err := fcatch.Detect(w, fcatch.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p := sel.Observation.FaultFreeOutcome.Picks; res.Observation.FaultFreeOutcome.Picks == p {
		t.Fatalf("the exhaustive fault-free run makes the selective run's %d picks: the test cannot tell the fallback apart", p)
	}
}
