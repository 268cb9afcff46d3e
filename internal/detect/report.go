// Package detect implements FCatch's TOF-bug prediction: the crash-regular
// detector (Section 4.2) and the crash-recovery detector (Section 4.3),
// including the fault-tolerance pruning analyses and impact estimation whose
// effect Table 5 measures.
package detect

import (
	"fmt"
	"strings"

	"fcatch/internal/obs"
	"fcatch/internal/trace"
)

// BugType distinguishes the two TOF bug classes of Section 2.
type BugType int

const (
	// CrashRegular bugs: a regular node blocks forever because the causal
	// source of a signal/loop-enabling write disappeared (Figure 3).
	CrashRegular BugType = iota
	// CrashRecovery bugs: a recovery node consumes shared-resource content
	// the crashing node left in an unexpected state (Figure 4).
	CrashRecovery
)

func (b BugType) String() string {
	if b == CrashRegular {
		return "crash-regular"
	}
	return "crash-recovery"
}

// OpSummary captures one operation of a report.
type OpSummary struct {
	Op   trace.OpID
	Kind trace.Kind
	Site string
	PID  string
	Aux  string
	TS   int64
	// Occurrence is the 1-based index of this op among traced ops at the
	// same site, used to aim trigger points.
	Occurrence int
}

// summarize resolves a record's Syms through its owning trace: reports carry
// plain strings so they survive the trace they came from.
func summarize(t *trace.Trace, r *trace.Record, occ int) OpSummary {
	return OpSummary{
		Op: r.ID, Kind: r.Kind,
		Site: t.Str(r.Site), PID: t.Str(r.PID), Aux: t.Str(r.Aux),
		TS: r.TS, Occurrence: occ,
	}
}

// Report is one predicted TOF bug.
type Report struct {
	Type     BugType
	OpsDesc  string // "Signal vs Wait", "Write vs Loop", "Create vs Create", ...
	Resource string // concrete resource instance
	ResClass string // instance-normalized class (dedup key component)

	W      OpSummary  // the write/signal whose timing is hazardous
	R      OpSummary  // the read/wait/loop that mishandles it
	WPrime *OpSummary // crash-regular only: remote causal source of W

	// Crash-recovery trigger timing (Section 5): if W was observed in the
	// correct faulty run (before the crash), crash right before W; if W only
	// appeared in the fault-free run, crash right after it.
	WInFaultyRun bool

	// CrashTargetPID is the process whose crash (or whose message's drop)
	// triggers the bug: W′'s process for crash-regular, W's for
	// crash-recovery.
	CrashTargetPID string
	// CrashTargetRole is the role of that process (so trigger runs can
	// restart it, exercising recovery).
	CrashTargetRole string

	// WindowID / FaultIndex anchor the report to the hazard window whose
	// recovery it describes: WindowID is the window's position in the
	// observation, FaultIndex the scenario event that opened it. Both are 0
	// for single-fault observations (the 1-window special case) and for
	// crash-regular reports, whose hazard is hypothetical.
	WindowID   int
	FaultIndex int

	Workload string
}

// Key is the deduplication identity: two reports with the same key describe
// the same bug even if observed on different resource instances or runs
// (Section 8.1.1's "same bug" star in Table 3).
func (r *Report) Key() string {
	k := fmt.Sprintf("%s|%s|%s|%s", r.Type, r.W.Site, r.R.Site, r.ResClass)
	if r.WindowID > 0 {
		// Reports from later hazard windows are distinct findings even on
		// the same sites: a rolling-crash hazard is not its single-crash
		// shadow. Window 0 carries no suffix: a single-fault report's key is
		// its sites and resource class alone (the goldens pin it).
		k += "|w" + itoa(int64(r.WindowID))
	}
	return k
}

// String renders a one-line summary.
func (r *Report) String() string {
	s := fmt.Sprintf("[%s] %s on %s: W=%s@%s R=%s@%s",
		r.Type, r.OpsDesc, r.ResClass, r.W.Kind, r.W.Site, r.R.Kind, r.R.Site)
	if r.WPrime != nil {
		s += fmt.Sprintf(" W'=%s@%s(%s)", r.WPrime.Kind, r.WPrime.Site, r.WPrime.PID)
	}
	return s
}

// Options toggles the fault-tolerance pruning analyses, for the ablation
// the paper quantifies in Section 8.4: "Without them, the number of false
// positives will increase by about 5X for crash-regular bugs and about 40X
// for crash-recovery bugs." All analyses are on by default.
type Options struct {
	// DisableTimeoutPruning keeps timed waits and deadline-bounded loops as
	// candidates (Section 4.2.2).
	DisableTimeoutPruning bool
	// DisableDependencePruning keeps sanity-checked and reset-protected
	// recovery reads (Section 4.3.2).
	DisableDependencePruning bool
	// DisableImpactPruning keeps reads with no failure-prone impact
	// (Section 4.3.3).
	DisableImpactPruning bool
	// CrashedPIDs are crash victims for callers with no firings or windows
	// (saved traces): each lowers to a node-crash firing at its recorded
	// crash step; empty means the trace's first recorded crash.
	CrashedPIDs []string
	// Firings are the scenario's actual fault firings (victim, step,
	// anchor per event). When set, hazard windows are derived from them.
	Firings []trace.FaultFiring
	// Windows, when non-empty, are the observation's hazard windows,
	// derived once by the caller (core.Detect) and shared by both
	// detectors and the cross-window pairing pass.
	Windows []Window
	// Explain records one Decision per candidate the detectors judge,
	// naming the pruning rule that discarded it (or "kept"). Reports are
	// byte-identical with Explain on or off.
	Explain bool
	// Metrics, when non-nil, receives per-rule pruning counters and
	// per-window phase spans. Strictly observe-only: metrics never change
	// detection results. nil (the default) is a cheap no-op.
	Metrics *obs.Registry
}

// PruneCounters tallies how many candidates each fault-tolerance analysis
// eliminated — the per-workload rows of Table 5. Loop/Wait timeout counts
// are deduplicated candidate groups; Dependence and Impact counts are raw
// conflicting pairs (those analyses run before deduplication).
type PruneCounters struct {
	LoopTimeout int
	WaitTimeout int
	Dependence  int
	Impact      int
}

// Add accumulates counters.
func (p *PruneCounters) Add(o PruneCounters) {
	p.LoopTimeout += o.LoopTimeout
	p.WaitTimeout += o.WaitTimeout
	p.Dependence += o.Dependence
	p.Impact += o.Impact
}

// normalizeRes maps a concrete resource ID to its class: process IDs and
// numeric instance suffixes are collapsed, so "cv:regionserver#2:open/17"
// and "cv:regionserver#1:open/9" both become "cv:open".
func normalizeRes(res string) string {
	parts := strings.SplitN(res, ":", 3)
	switch {
	case len(parts) == 3 && (parts[0] == "heap" || parts[0] == "cv" || parts[0] == "lfs"):
		// Drop the process/machine component.
		res = parts[0] + ":" + parts[2]
	}
	// Collapse digit runs and instance suffixes.
	var b strings.Builder
	inDigits := false
	for _, c := range res {
		if c >= '0' && c <= '9' {
			if !inDigits {
				b.WriteByte('#')
				inDigits = true
			}
			continue
		}
		inDigits = false
		b.WriteRune(c)
	}
	s := b.String()
	s = strings.ReplaceAll(s, "/#", "")
	return s
}

// Dedup collapses reports with equal keys, keeping the earliest observation.
func Dedup(reports []*Report) []*Report {
	seen := make(map[string]*Report)
	var order []string
	for _, r := range reports {
		k := r.Key()
		if _, ok := seen[k]; !ok {
			seen[k] = r
			order = append(order, k)
		}
	}
	out := make([]*Report, 0, len(order))
	for _, k := range order {
		out = append(out, seen[k])
	}
	return out
}
