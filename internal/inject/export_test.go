package inject

// withoutPickBudget makes tg's replays run under the workload's clock budget
// alone (MaxPicks 0), the rule before replays had a work budget, and returns
// the fault-free picks the budget would have been sized from.
func withoutPickBudget(tg *Triggerer) (faultFreePicks int64) {
	tg.replayConfig(nil, nil) // measure the fault-free run
	faultFreePicks, tg.maxPicks = tg.maxPicks/hangPicks, 0
	return faultFreePicks
}
