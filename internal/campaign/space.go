package campaign

import (
	"fmt"
	"strings"

	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// SiteInfo summarizes one static op site of the fault-free trace.
type SiteInfo struct {
	Site string `json:"site"`
	// Count is how many times the site executed in the fault-free run.
	Count int `json:"count"`
	// Sendable: some execution of the site is a message send or RPC call, so
	// kernel-level drops apply.
	Sendable bool `json:"sendable,omitempty"`
	// Droppable: some execution uses a droppable verb, so application-level
	// drops apply too.
	Droppable bool `json:"droppable,omitempty"`
	// FirstTS is the logical timestamp of the site's first execution; sites
	// are ordered by it, which gives the coverage-guided strategy its notion
	// of "nearby" sites.
	FirstTS int64 `json:"first_ts"`
}

// Space is the fault-space model: every candidate injection point enumerated
// from a fault-free trace — op sites × {before, after} × {node crash, kernel
// drop, app drop} × occurrence — instead of raw step numbers. Enumeration is
// a pure function of the trace, so the space (and every strategy walking it)
// is deterministic.
type Space struct {
	// Target is the workload's crash-target role (used by step plans).
	Target string
	// BaseSteps is the fault-free execution length in scheduler steps (the
	// sample space of the random strategy).
	BaseSteps int64
	// Sites in first-execution order.
	Sites []SiteInfo
	// Points are the candidate plans, in deterministic exploration order:
	// wave o ∈ 1..maxOcc visits every site's o-th occurrence (trace order)
	// with each applicable action, so early budget spreads across all sites
	// before re-visiting any.
	Points []Plan

	siteOrd map[string]int
}

// maxOccurrenceDefault caps how many occurrences of one site are enumerated;
// later occurrences of hot sites rarely expose new behavior and would bloat
// the space quadratically.
const maxOccurrenceDefault = 3

// NewSpace enumerates the fault space of a traced fault-free run.
func NewSpace(tr *trace.Trace, baseSteps int64, target string, maxOcc int) *Space {
	f := newSpaceFold(target)
	f.Window(tr, tr.Records)
	sp := f.finish(maxOcc)
	sp.BaseSteps = baseSteps
	return sp
}

// spaceFold accumulates per-site statistics from record windows; its Window
// method is a trace.WindowFn, so the engine's traced fault-free run can
// enumerate the space without keeping its records.
type spaceFold struct {
	sp *Space
	// Per-Sym ordinal table for the enumeration loop (one slice probe per
	// record, grown as symbols appear mid-stream); the string-keyed siteOrd
	// stays for SiteOrdinal's public API and is filled once per distinct site.
	ordBySym []int
}

func newSpaceFold(target string) *spaceFold {
	return &spaceFold{sp: &Space{Target: target, siteOrd: map[string]int{}}}
}

// Window folds one window of records into the site statistics (a
// trace.WindowFn).
func (f *spaceFold) Window(t *trace.Trace, recs []trace.Record) {
	sp := f.sp
	for i := range recs {
		r := &recs[i]
		if r.Site == trace.NoSym || r.Kind == trace.KCrash || r.Kind == trace.KRestart {
			continue
		}
		for int(r.Site) >= len(f.ordBySym) {
			n := 2 * len(f.ordBySym)
			if n <= int(r.Site) {
				n = int(r.Site) + 1
			}
			grown := make([]int, n)
			copy(grown, f.ordBySym)
			for j := len(f.ordBySym); j < n; j++ {
				grown[j] = -1
			}
			f.ordBySym = grown
		}
		ord := f.ordBySym[r.Site]
		if ord < 0 {
			ord = len(sp.Sites)
			f.ordBySym[r.Site] = ord
			site := t.Str(r.Site)
			sp.siteOrd[site] = ord
			sp.Sites = append(sp.Sites, SiteInfo{Site: site, FirstTS: r.TS})
		}
		si := &sp.Sites[ord]
		si.Count++
		if r.Kind == trace.KMsgSend || r.Kind == trace.KRPCCall {
			si.Sendable = true
			if r.HasFlag(trace.FlagDroppable) {
				si.Droppable = true
			}
		}
	}
}

// finish enumerates the candidate plans over the accumulated sites and
// returns the completed space.
func (f *spaceFold) finish(maxOcc int) *Space {
	if maxOcc <= 0 {
		maxOcc = maxOccurrenceDefault
	}
	sp := f.sp
	for occ := 1; occ <= maxOcc; occ++ {
		for _, si := range sp.Sites {
			if si.Count < occ {
				continue
			}
			sp.Points = append(sp.Points,
				sitePoint(si.Site, occ, sim.WhenBefore, sim.ActionNodeCrash),
				sitePoint(si.Site, occ, sim.WhenAfter, sim.ActionNodeCrash))
			if si.Sendable {
				sp.Points = append(sp.Points,
					sitePoint(si.Site, occ, sim.WhenBefore, sim.ActionKernelDrop))
			}
			if si.Droppable {
				sp.Points = append(sp.Points,
					sitePoint(si.Site, occ, sim.WhenBefore, sim.ActionAppDrop))
			}
		}
	}
	return sp
}

// sitePoint builds a single-event site-anchored candidate plan.
func sitePoint(site string, occ int, when, action string) Plan {
	return Plan{{Site: site, Occurrence: occ, When: when, Action: action}}
}

// SiteOrdinal returns the first-execution rank of a site (-1 if unknown),
// the distance metric behind the coverage-guided neighborhood boost.
func (sp *Space) SiteOrdinal(site string) int {
	if ord, ok := sp.siteOrd[site]; ok {
		return ord
	}
	return -1
}

// Composite-scenario names accepted by Config.Scenarios / AppendScenarios.
const (
	// ScenarioRecoveryCrash chains a node crash with a second crash landing
	// inside the first victim's recovery window: the crashed role is
	// restarted (per-event restart override, so even roles outside the
	// workload's restart map recover) and its fresh incarnation is crashed
	// again shortly after it comes back.
	ScenarioRecoveryCrash = "crash+recovery-crash"
	// ScenarioCrashDrop chains a node crash with a kernel-level drop of the
	// next sendable site, so the surviving nodes both lose a peer and a
	// message while coping with the loss.
	ScenarioCrashDrop = "crash+drop"
)

// ScenarioNames lists the composite-scenario enumerators in canonical order.
func ScenarioNames() []string { return []string{ScenarioRecoveryCrash, ScenarioCrashDrop} }

// recoveryCrashGap is how long after the first victim's restart delay the
// follow-up crash lands — far enough in for recovery to be underway, close
// enough to hit its window.
const recoveryCrashGap = 8

// AppendScenarios appends composite-scenario candidate plans to the space,
// after the single-fault points (so a scenarios-off campaign's space is an
// exact prefix and its corpus is untouched). restart is the workload's
// restart map; the recovery-crash scenario derives its timing from the
// slowest mapped restart (default 40 ticks when the map is empty).
func (sp *Space) AppendScenarios(names []string, restart map[string]int64) error {
	want := map[string]bool{}
	for _, n := range names {
		switch n {
		case ScenarioRecoveryCrash, ScenarioCrashDrop:
			want[n] = true
		case "":
		default:
			return fmt.Errorf("campaign: unknown scenario %q (have %s)",
				n, strings.Join(ScenarioNames(), ", "))
		}
	}
	if want[ScenarioRecoveryCrash] {
		restartDelay := int64(40)
		for _, d := range restart {
			if d > restartDelay {
				restartDelay = d
			}
		}
		gap := restartDelay + recoveryCrashGap
		for _, si := range sp.Sites {
			rd := restartDelay
			sp.Points = append(sp.Points, Plan{
				{Site: si.Site, Occurrence: 1, When: sim.WhenBefore, Action: sim.ActionNodeCrash, Restart: &rd},
				{Delay: gap, Action: sim.ActionNodeCrash},
			})
		}
	}
	if want[ScenarioCrashDrop] {
		for i, si := range sp.Sites {
			drop := ""
			for j := i + 1; j < len(sp.Sites); j++ {
				if sp.Sites[j].Sendable {
					drop = sp.Sites[j].Site
					break
				}
			}
			if drop == "" {
				continue
			}
			sp.Points = append(sp.Points, Plan{
				{Site: si.Site, Occurrence: 1, When: sim.WhenBefore, Action: sim.ActionNodeCrash},
				{Site: drop, Occurrence: 1, When: sim.WhenBefore, Action: sim.ActionKernelDrop},
			})
		}
	}
	return nil
}
