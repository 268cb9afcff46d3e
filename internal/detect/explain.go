package detect

import (
	"fmt"
	"strings"

	"fcatch/internal/obs"
	"fcatch/internal/trace"
)

// Explain mode gives every candidate the detectors judge exactly one verdict:
// the first §4 pruning rule that discarded it in the actual control flow, or
// "kept" if it survived. The decision units are what the detectors iterate —
// deduplicated signal/wait and write/loop groups for crash-regular (§4.2.2
// prunes per group), raw conflicting pairs for crash-recovery (§4.3.2/4.3.3
// prune before deduplication) — so per-rule kill counts always sum to the
// candidate count:
//
//	len(Decisions) == count(kept) + Σ count(rule killed)
//
// A "kept" crash-recovery decision is pre-dedup: several kept pairs may
// collapse into one report.

// Rule names for Decision.Rule, in pipeline order.
const (
	// RuleKept marks a candidate that survived every pruning analysis.
	RuleKept = "kept"
	// RuleWaitTimeout is §4.2.2 timeout pruning of a timed signal/wait group.
	RuleWaitTimeout = "wait-timeout"
	// RuleLoopTimeout is §4.2.2 timeout pruning of a deadline-bounded loop group.
	RuleLoopTimeout = "loop-timeout"
	// RuleSanityCheck is §4.3.2 control-dependence pruning: a recovery read
	// guarded the candidate read.
	RuleSanityCheck = "sanity-check"
	// RuleReset is §4.3.2 data-dependence pruning: recovery rewrote the
	// resource before the candidate read.
	RuleReset = "reset"
	// RuleImpact is §4.3.3 impact pruning: the read reaches no failure-prone
	// sink.
	RuleImpact = "impact"
)

// RuleNames lists every Decision.Rule value in kill-table display order.
func RuleNames() []string {
	return []string{RuleWaitTimeout, RuleLoopTimeout, RuleSanityCheck, RuleReset, RuleImpact, RuleKept}
}

// Decision is one candidate's verdict, recorded when Options.Explain is set.
type Decision struct {
	Detector  string `json:"detector"` // "crash-regular" or "crash-recovery"
	Window    int    `json:"window"`   // hazard window ID (0 for crash-regular)
	Candidate string `json:"candidate"`
	Rule      string `json:"rule"`
}

// Tally is a detector pass's kill table: how many candidates each rule
// judged, kept included, in RuleNames order. Table 5, the `fcatch detect`
// pruned line, RenderExplain and the detect/rule/* counters all read it.
type Tally [6]int

// Of is rule's count.
func (t Tally) Of(rule string) int { return t[ruleIndex(rule)] }

func ruleIndex(rule string) int {
	for i, name := range RuleNames() {
		if name == rule {
			return i
		}
	}
	panic("detect: unknown pruning rule " + rule)
}

// publish adds the tally to reg's detect/rule/* counters, once per pass.
func (t *Tally) publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for i, rule := range RuleNames() {
		reg.Counter("detect/rule/" + rule).Add(int64(t[i]))
	}
}

// KillTable tallies decisions by rule: the reference a pass's Tally must
// equal when it ran with Options.Explain.
func KillTable(decisions []Decision) map[string]int {
	out := make(map[string]int, len(RuleNames()))
	for _, d := range decisions {
		out[d.Rule]++
	}
	return out
}

// regularCandidate renders a crash-regular group's identity for a decision
// trail: Report.String without the bug-type tag the Decision.Detector field
// already carries.
func regularCandidate(rep *Report) string {
	s := rep.String()
	if i := strings.Index(s, "] "); i >= 0 {
		return s[i+2:]
	}
	return s
}

// recoveryCandidate renders a crash-recovery pair's identity for a decision
// trail, mirroring Report.String without constructing a Report.
func recoveryCandidate(tw *trace.Trace, w *trace.Record, tr *trace.Trace, r *trace.Record) string {
	return fmt.Sprintf("%s on %s: W=%s@%s R=%s@%s",
		opsDesc(tw, w, tr, r), normalizeRes(tr.Str(r.Res)),
		w.Kind, tw.Str(w.Site), r.Kind, tr.Str(r.Site))
}
