package detect

import (
	"sort"

	"fcatch/internal/hb"
	"fcatch/internal/trace"
)

// RegularResult is the crash-regular detector's output on one correct run.
type RegularResult struct {
	Reports []*Report
	Tally   Tally
	// Decisions is the per-candidate verdict trail, one entry per
	// deduplicated candidate group; nil unless Options.Explain.
	Decisions []Decision
}

// occurrence numbers a record within its site's list (Index.BySite), the
// numbering the fault injector uses at run time. Site lists are in trace
// order (ascending OpID), so the lookup is a binary search. Records the
// index skipped (fault bookkeeping, empty sites) are occurrence 1.
func occurrence(ix *trace.Index, r *trace.Record) int {
	ids := ix.SiteIDs(r.Site)
	i := sort.Search(len(ids), func(k int) bool { return ids[k] >= r.ID })
	if i < len(ids) && ids[i] == r.ID {
		return i + 1
	}
	return 1
}

// DetectRegularOpts predicts crash-regular TOF bugs from one fault-free
// trace (Section 4.2): it pairs blocking operations (standard signal/wait and
// custom loop-signals), keeps pairs whose W causally comes from another
// node, and prunes pairs protected by timeout mechanisms. opts toggles the
// pruning analyses; the zero Options is the paper's full pipeline.
func DetectRegularOpts(g *hb.Graph, workload string, opts Options) *RegularResult {
	t := g.Ix.T
	ix := g.Ix
	res := &RegularResult{}

	type group struct {
		reports []*Report
		timed   bool // any instance protected by a timeout
	}
	groups := make(map[string]*group)
	var order []string
	addCandidate := func(rep *Report, timed bool) {
		k := rep.Key()
		grp, ok := groups[k]
		if !ok {
			grp = &group{}
			groups[k] = grp
			order = append(order, k)
		}
		grp.reports = append(grp.reports, rep)
		grp.timed = grp.timed || timed
	}

	// --- Standard condition-variable signal/wait pairs (Section 4.2.1). ---
	// Resolve cv resources to strings and sort them: the symbol table is in
	// interning order, and report order is by resource name (the goldens pin
	// it).
	type cvRes struct {
		str string
		sym trace.Sym
	}
	var cvResIDs []cvRes
	for y := 1; y < t.NumSyms(); y++ {
		if len(g.Ix.ResIDs(trace.Sym(y))) == 0 {
			continue
		}
		s := t.Str(trace.Sym(y))
		if len(s) >= 3 && s[:3] == "cv:" {
			cvResIDs = append(cvResIDs, cvRes{str: s, sym: trace.Sym(y)})
		}
	}
	sort.Slice(cvResIDs, func(i, j int) bool { return cvResIDs[i].str < cvResIDs[j].str })
	for _, cv := range cvResIDs {
		resID := cv.str
		var waits, signals []*trace.Record
		for _, id := range g.Ix.ResIDs(cv.sym) {
			r := t.At(id)
			switch r.Kind {
			case trace.KWait:
				waits = append(waits, r)
			case trace.KSignal:
				signals = append(signals, r)
			}
		}
		for _, w := range waits {
			var sig *trace.Record
			for _, s := range signals {
				if s.ID > w.ID {
					sig = s
					break
				}
			}
			if sig == nil || sig.Thread == w.Thread {
				continue
			}
			wp := g.CrossNodeAncestor(sig.ID)
			if wp == nil {
				continue // the signal is purely local; no fault can remove it
			}
			wps := summarize(t, wp, occurrence(ix, wp))
			rep := &Report{
				Type:            CrashRegular,
				OpsDesc:         "Signal vs Wait",
				Resource:        resID,
				ResClass:        normalizeRes(resID),
				W:               summarize(t, sig, occurrence(ix, sig)),
				R:               summarize(t, w, occurrence(ix, w)),
				WPrime:          &wps,
				CrashTargetPID:  wps.PID,
				CrashTargetRole: trace.Role(wps.PID),
				Workload:        workload,
			}
			addCandidate(rep, w.HasFlag(trace.FlagTimedWait))
		}
	}

	// --- Custom while-loop signals (Section 4.2.1, Figure 6). ---
	for _, exitID := range g.Ix.ByKind[trace.KLoopExit] {
		exit := t.At(exitID)
		timeBased := false
		var exitReads []*trace.Record
		for _, taintID := range exit.Taint {
			tr := t.At(taintID)
			if tr == nil {
				continue
			}
			switch tr.Kind {
			case trace.KTimeRead:
				timeBased = true
			case trace.KLoopRead:
				if tr.Thread == exit.Thread {
					exitReads = append(exitReads, tr)
				}
			}
		}
		for _, r := range exitReads {
			w := t.At(r.Src)
			if w == nil || !w.Kind.IsWriteLike() {
				continue
			}
			if w.Thread == r.Thread && w.Frame == r.Frame {
				continue // same thread/handler: not a custom signal
			}
			wp := g.CrossNodeAncestor(w.ID)
			if wp == nil {
				continue
			}
			wps := summarize(t, wp, occurrence(ix, wp))
			resStr := t.Str(r.Res)
			rep := &Report{
				Type:            CrashRegular,
				OpsDesc:         "Write vs Loop",
				Resource:        resStr,
				ResClass:        normalizeRes(resStr),
				W:               summarize(t, w, occurrence(ix, w)),
				R:               summarize(t, r, occurrence(ix, r)),
				WPrime:          &wps,
				CrashTargetPID:  wps.PID,
				CrashTargetRole: trace.Role(wps.PID),
				Workload:        workload,
			}
			addCandidate(rep, timeBased)
		}
	}

	// --- Timeout pruning (Section 4.2.2), per deduplicated candidate. ---
	sort.Strings(order)
	for _, k := range order {
		grp := groups[k]
		rep := grp.reports[0]
		rule := RuleKept
		if grp.timed && !opts.DisableTimeoutPruning {
			rule = RuleLoopTimeout
			if rep.OpsDesc == "Signal vs Wait" {
				rule = RuleWaitTimeout
			}
		}
		if opts.Explain {
			res.Decisions = append(res.Decisions, Decision{
				Detector:  CrashRegular.String(),
				Candidate: regularCandidate(rep),
				Rule:      rule,
			})
		}
		res.Tally[ruleIndex(rule)]++
		if rule == RuleKept {
			res.Reports = append(res.Reports, rep)
		}
	}
	res.Tally.publish(opts.Metrics)
	return res
}
