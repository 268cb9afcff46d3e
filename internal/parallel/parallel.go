// Package parallel provides the bounded fan-out primitive used across the
// FCatch pipeline: evaluation runs the six Table 1 workloads concurrently,
// the triggering module replays reports concurrently, and the campaign
// engine fans each batch of injection runs across cores. Every unit of
// work builds its own sim.Cluster, so isolation is structural; determinism is
// preserved because each index writes into its own pre-allocated result slot
// and callers consume the slots in index order — the schedule never leaks
// into the output.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a Parallelism knob: values <= 0 mean "use every core"
// (GOMAXPROCS), anything else is taken literally.
func Resolve(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for i in [0, n) on at most `workers` goroutines
// (after Resolve). With one worker — or one unit of work — it runs inline on
// the caller's goroutine, making the sequential path literally the same code
// path the parity tests compare against. Work is handed out by an atomic
// cursor, so workers stay busy regardless of per-item skew. A panic in fn is
// re-raised on the caller after all workers drain.
//
// Cancelling ctx stops new units from starting: units already in flight run
// to completion (a sim.Cluster run cannot be interrupted mid-step), unstarted
// indices are skipped, and the context's error is returned. A nil return
// means every unit ran. This is the hook that lets a distributed
// coordinator's drain — or a lease expiry — stop in-flight local work at the
// next unit boundary instead of burning the rest of the batch.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			fn(i)
		}
		return nil
	}
	var (
		cursor    atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  any
		panicked  atomic.Bool
	)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() {
					panicVal = r
					panicked.Store(true)
				})
			}
		}()
		fn(i)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
	return ctx.Err()
}

// Map runs fn over [0, n) with ForEach's scheduling and returns the results
// in index order — the deterministic-collection contract in one call. On a
// cancelled context the returned error is non-nil and the result slice is
// partial (unstarted slots hold zero values), so callers must discard it
// rather than merge it.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out, err
}

// MapErr is Map for fallible work. Every unit still runs (workers do not
// short-circuit — aborting mid-campaign would make partial results depend on
// scheduling); the returned error is the lowest-index failure, so the error a
// caller sees is the same one the sequential loop would have hit first. A
// context error takes precedence over per-unit errors: it means the batch was
// abandoned, not that a unit failed.
func MapErr[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if err := ForEach(ctx, workers, n, func(i int) {
		out[i], errs[i] = fn(i)
	}); err != nil {
		return out, err
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
