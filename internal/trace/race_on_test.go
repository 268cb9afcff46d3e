//go:build race

package trace_test

// raceEnabled: under the race detector sync.Pool drops items at random, so
// allocation budgets that assume a warm pool do not hold.
const raceEnabled = true
