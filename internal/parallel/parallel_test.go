package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0) = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Resolve(5); got != 5 {
		t.Fatalf("Resolve(5) = %d", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 257
		var counts [n]atomic.Int32
		if err := ForEach(context.Background(), workers, n, func(i int) { counts[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	ran := false
	ForEach(context.Background(), 4, 0, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran with n=0")
	}
}

func TestMapIsOrderDeterministic(t *testing.T) {
	bg := context.Background()
	want, _ := Map(bg, 1, 100, func(i int) int { return i * i })
	for _, workers := range []int{2, 7, 16} {
		got, _ := Map(bg, workers, 100, func(i int) int { return i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	// Errors at 30 and 10: the sequential path would hit 10 first; the
	// parallel path must report the same one regardless of schedule.
	for _, workers := range []int{1, 4} {
		_, err := MapErr(context.Background(), workers, 50, func(i int) (int, error) {
			if i == 30 || i == 10 {
				return 0, fmt.Errorf("fail at %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "fail at 10" {
			t.Fatalf("workers=%d: err = %v, want fail at 10", workers, err)
		}
	}
}

func TestMapErrRunsEverything(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	_, err := MapErr(context.Background(), 4, 40, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 40 {
		t.Fatalf("ran %d/40 units despite early error", ran.Load())
	}
}

func TestForEachCtxCancelStopsNewUnits(t *testing.T) {
	// Cancel from inside unit 5: in-flight units finish, unstarted units are
	// skipped, and the context error is surfaced. With one worker the order
	// is sequential, so exactly 6 units (0..5) must have run.
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEach(ctx, workers, 10_000, func(i int) {
			ran.Add(1)
			if i == 5 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 10_000 {
			t.Fatalf("workers=%d: cancellation did not stop the batch (%d units ran)", workers, n)
		}
		if workers == 1 && ran.Load() != 6 {
			t.Fatalf("sequential cancel: %d units ran, want 6", ran.Load())
		}
		cancel()
	}
}

func TestMapCtxPartialOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any unit starts
	out, err := Map(ctx, 2, 8, func(i int) int { return i + 1 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("slot %d = %d; no unit should have run", i, v)
		}
	}
}

func TestMapErrCtxContextErrorWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	_, err := MapErr(ctx, 1, 10, func(i int) (int, error) {
		if i == 2 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the context error to take precedence", err)
	}
	cancel()
}

func TestForEachPropagatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: panic not propagated", workers)
				}
			}()
			ForEach(context.Background(), workers, 10, func(i int) {
				if i == 3 {
					panic("kaboom")
				}
			})
		}()
	}
}
