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

// NewSpace enumerates the fault space of a traced fault-free run. The third
// argument, the workload's crash target, is unused: a plan's step crashes
// find their default victim in the simulator (sim.NewScenarioPlan).
func NewSpace(tr *trace.Trace, baseSteps int64, _ string, maxOcc int) *Space {
	f := newSpaceFold()
	sim.FoldTrace(f, tr)
	sp := f.finish(maxOcc)
	sp.BaseSteps = baseSteps
	return sp
}

// spaceFold accumulates per-site statistics from a run's facts. It is a
// sim.Fold that reads no dependences, so the engine's traced fault-free run
// enumerates the space without keeping a trace, numbering ops or merging
// taints.
type spaceFold struct {
	sp *Space
	// Per-SiteID ordinal table for the enumeration loop (one slice probe per
	// fact, grown as sites appear mid-run); the string-keyed siteOrd stays
	// for SiteOrdinal's public API and is filled once per distinct site.
	ordBySite []int
}

func newSpaceFold() *spaceFold {
	return &spaceFold{sp: &Space{siteOrd: map[string]int{}}}
}

// Fact folds one fact into the site statistics, recording a site's string
// the first time it is seen.
func (f *spaceFold) Fact(x *sim.Fact) {
	if x.Site == sim.NoSite || x.Kind == trace.KCrash || x.Kind == trace.KRestart {
		return
	}
	for int(x.Site) >= len(f.ordBySite) {
		n := 2 * len(f.ordBySite)
		if n <= int(x.Site) {
			n = int(x.Site) + 1
		}
		grown := make([]int, n)
		copy(grown, f.ordBySite)
		for j := len(f.ordBySite); j < n; j++ {
			grown[j] = -1
		}
		f.ordBySite = grown
	}
	sp := f.sp
	ord := f.ordBySite[x.Site]
	if ord < 0 {
		ord = len(sp.Sites)
		f.ordBySite[x.Site] = ord
		sp.siteOrd[x.SiteName] = ord
		sp.Sites = append(sp.Sites, SiteInfo{Site: x.SiteName, FirstTS: x.TS})
	}
	si := &sp.Sites[ord]
	si.Count++
	if x.Kind == trace.KMsgSend || x.Kind == trace.KRPCCall {
		si.Sendable = true
		if x.Flags&trace.FlagDroppable != 0 {
			si.Droppable = true
		}
	}
}

// DepSite names no source site: the fold reads no dependences.
func (*spaceFold) DepSite() string { return "" }

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
				sitePoint(si.Site, occ, trace.WhenBefore, trace.ActionNodeCrash),
				sitePoint(si.Site, occ, trace.WhenAfter, trace.ActionNodeCrash))
			if si.Sendable {
				sp.Points = append(sp.Points,
					sitePoint(si.Site, occ, trace.WhenBefore, trace.ActionKernelDrop))
			}
			if si.Droppable {
				sp.Points = append(sp.Points,
					sitePoint(si.Site, occ, trace.WhenBefore, trace.ActionAppDrop))
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
				{Site: si.Site, Occurrence: 1, When: trace.WhenBefore, Action: trace.ActionNodeCrash, Restart: &rd},
				{Delay: gap, Action: trace.ActionNodeCrash},
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
				{Site: si.Site, Occurrence: 1, When: trace.WhenBefore, Action: trace.ActionNodeCrash},
				{Site: drop, Occurrence: 1, When: trace.WhenBefore, Action: trace.ActionKernelDrop},
			})
		}
	}
	return nil
}
