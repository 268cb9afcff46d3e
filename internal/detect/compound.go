package detect

import (
	"fmt"

	"fcatch/internal/hb"
	"fcatch/internal/trace"
)

// Cross-window pairing: the hazard-window analysis applied recursively. A
// composite scenario's later fault is interesting precisely when it lands
// *inside* the hazard window an earlier fault opened — the second fault
// orphans recovery work already in flight, the failure shape single-fault
// detection cannot describe. DetectCompound walks the observation's windows
// and reports every such containment, anchored on both windows.

// CompoundReport is one cross-window finding: window Inner's fault fired
// while window Outer's recovery was still in flight.
type CompoundReport struct {
	// Outer is the window whose recovery the later fault interrupted; Inner
	// is the window that fault opened.
	Outer Window
	Inner Window
	// Orphaned is the last recovery operation of the outer window observed
	// at or before the inner fault — the work the second fault cut short.
	// Zero-valued (Op == 0) when the outer recovery had not reached any
	// traced op yet.
	Orphaned OpSummary
	Workload string
}

// Key is the deduplication identity: the pair of window anchors.
func (c *CompoundReport) Key() string {
	return fmt.Sprintf("compound|w%d:%s@%d|w%d:%s@%d",
		c.Outer.ID, c.Outer.Victim, c.Outer.Step,
		c.Inner.ID, c.Inner.Victim, c.Inner.Step)
}

// String renders a one-line summary.
func (c *CompoundReport) String() string {
	s := fmt.Sprintf("[compound] %s fault@%d inside %s recovery window [%d..%d] of %s",
		c.Inner.Kind(), c.Inner.Step, c.Outer.Kind(), c.Outer.Step, c.Outer.CloseStep, c.Outer.Victim)
	if c.Orphaned.Op != 0 {
		s += fmt.Sprintf(" orphans %s@%s(%s)", c.Orphaned.Kind, c.Orphaned.Site, c.Orphaned.PID)
	}
	return s
}

// DetectCompound pairs an observation's hazard windows: for every
// crash-recovery window k, every later window whose fault fired inside k is
// reported, with the last of k's recovery operations the inner fault orphaned
// as evidence. Single-window observations (every single-fault run) produce
// nothing.
func DetectCompound(gy *hb.Graph, windows []Window, workload string) []*CompoundReport {
	if len(windows) < 2 {
		return nil
	}
	ty := gy.Ix.T
	var out []*CompoundReport
	for k := range windows {
		outer := &windows[k]
		if outer.Kind() != WindowCrashRecovery || outer.Victim == "" {
			continue // only crash windows open a recovery to interrupt
		}
		for j := k + 1; j < len(windows); j++ {
			inner := &windows[j]
			if !outer.Contains(inner.Step) {
				continue
			}
			rep := &CompoundReport{Outer: *outer, Inner: *inner, Workload: workload}
			if orphaned := lastRecoveryOp(ty, outer, inner.Step); orphaned != nil {
				rep.Orphaned = summarize(ty, orphaned, occurrence(gy.Ix, orphaned))
			}
			out = append(out, rep)
		}
	}
	return out
}

// lastRecoveryOp finds the last operation of the outer window's recovery —
// its victim's restarted incarnation, or any process born inside the window —
// at or before the inner fault's step. Resource-touching ops are preferred
// over bookkeeping (thread starts, exits): they are the ops a conflicting
// pair would name.
func lastRecoveryOp(ty *trace.Trace, outer *Window, innerStep int64) *trace.Record {
	born := map[trace.Sym]bool{}
	if outer.Incarnation != "" {
		if y, ok := ty.Lookup(outer.Incarnation); ok {
			born[y] = true
		}
	}
	firstSeen := map[trace.Sym]int64{}
	var best, bestRes *trace.Record
	for i := range ty.Records {
		r := &ty.Records[i]
		if r.TS > innerStep {
			break // records are in clock order
		}
		if _, ok := firstSeen[r.PID]; !ok {
			firstSeen[r.PID] = r.TS
			if r.TS > outer.Step {
				born[r.PID] = true // process born inside the window
			}
		}
		if r.TS <= outer.Step || !born[r.PID] {
			continue
		}
		switch r.Kind {
		case trace.KCrash, trace.KRestart, trace.KThreadExit:
			continue
		}
		best = r
		if r.Res != trace.NoSym {
			bestRes = r
		}
	}
	if bestRes != nil {
		return bestRes
	}
	return best
}
