package detect

import (
	"math"
	"slices"
	"strings"

	"fcatch/internal/hb"
	"fcatch/internal/trace"
)

// RecoveryResult is the crash-recovery detector's output on one
// checkpoint-paired run pair.
type RecoveryResult struct {
	Reports []*Report
	Tally   Tally
	// RecoveryPIDs are the processes identified as recovery nodes.
	RecoveryPIDs []string
	// Decisions is the per-candidate verdict trail, one entry per raw
	// conflicting pair (pre-dedup); nil unless Options.Explain.
	Decisions []Decision
}

// isConsumer reports whether a record consumes shared-resource content for
// conflict purposes: read-like ops, plus creates (which consume the prior
// existence state — the HB2 Create-vs-Create pattern). createSym is the
// owning trace's Sym for "create".
func isConsumer(r *trace.Record, createSym trace.Sym) bool {
	if r.Kind.IsReadLike() {
		return true
	}
	return r.Kind == trace.KStCreate || (r.Kind == trace.KKVUpdate && r.Aux == createSym && r.Aux != trace.NoSym)
}

// Per-Sym resource classification, computed once per trace so the pair loops
// never touch strings.
const (
	resSkip       uint8 = 1 << iota // cv: instances and the crashed node's heap
	resPersistent                   // gfs:/lfs:/zk: — survives a process crash
	resHeap                         // heap: of any process
)

// classifyRes walks a trace's symbol table once and returns the dense per-Sym
// classification slice. A victim's heap dies with its node, so the victim
// list is "everyone dead by the window under analysis" — window k's
// classification skips the heaps of windows 0..k's victims, not of victims
// whose crash is still in the future.
func classifyRes(t *trace.Trace, victims []string) []uint8 {
	out := make([]uint8, t.NumSyms())
	heaps := make([]string, len(victims))
	for i, pid := range victims {
		heaps[i] = "heap:" + pid + ":"
	}
	for y := 1; y < t.NumSyms(); y++ {
		s := t.Str(trace.Sym(y))
		switch {
		case strings.HasPrefix(s, "cv:"):
			out[y] = resSkip
		case strings.HasPrefix(s, "heap:"):
			out[y] = resHeap
			for _, h := range heaps {
				if strings.HasPrefix(s, h) {
					out[y] |= resSkip // heap content dies with the node
					break
				}
			}
		case strings.HasPrefix(s, "gfs:") || strings.HasPrefix(s, "lfs:") || strings.HasPrefix(s, "zk:"):
			out[y] = resPersistent
		}
	}
	return out
}

// isImpactSink matches the failure-prone impact sinks of Section 4.3.3:
// locally an exception throw, a fatal log, an event creation, or a service
// start; globally an RPC invocation/return or a message send (RPC returns
// are reply message sends here).
func isImpactSink(k trace.Kind) bool {
	switch k {
	case trace.KThrow, trace.KLogFatal, trace.KEventEnq, trace.KServiceStart,
		trace.KRPCCall, trace.KMsgSend:
		return true
	}
	return false
}

// crashWrite is one candidate W: a write the fault orphaned, from the
// window's crash-write source (see Step 2). Site/PID are pre-translated to
// faulty-run Syms so the pair loop compares integers.
type crashWrite struct {
	r             *trace.Record
	siteY, pidY   trace.Sym // w.Site/w.PID in ty's table
	siteOK, pidOK bool      // false: the string never appears in ty
}

// DetectRecoveryOpts predicts crash-recovery TOF bugs from a
// checkpoint-paired fault-free trace and correct faulty trace (Section 4.3).
// Both runs share an identical prefix up to the faulty run's crash step, so
// resource IDs coincide across them and no ID translation is needed. opts
// toggles the pruning analyses; the zero Options is the paper's full
// pipeline.
//
// The pass is organized around the observation's hazard windows: each
// crash-recovery window gets its own resource classification (a heap dies at
// its window's open step, not globally), its own recovery-node set, its own
// crash-write source and its own dependence-prune context. A single-fault
// observation lowers to exactly one window. The windows are opts.Windows
// (ObservationWindows resolves them); without any, the pass has nothing to
// analyze.
func DetectRecoveryOpts(gf, gy *hb.Graph, workload string, opts Options) *RecoveryResult {
	res := &RecoveryResult{}
	tf, ty := gf.Ix.T, gy.Ix.T
	// Only crash windows open a recovery to analyze; drop-induced windows
	// still participate in report anchoring and compound pairing.
	var wins []*Window
	for i := range opts.Windows {
		if w := &opts.Windows[i]; w.Kind() == WindowCrashRecovery && w.Victim != "" {
			wins = append(wins, w)
		}
	}
	if len(wins) == 0 {
		return res
	}
	ixY := gy.Ix
	mFY := tf.SymMapTo(ty)
	createY, _ := ty.Lookup("create")

	// --- Step 1: recovery nodes (Section 4.3.1) — processes that exist in
	// the faulty trace but not in the fault-free trace — attributed to the
	// latest window already open at their first traced op (window 0 when they
	// precede every window: a single-fault observation keeps its whole set).
	firstTS := make([]int64, ty.NumSyms())
	seenPID := make([]bool, ty.NumSyms())
	for i := range ty.Records {
		r := &ty.Records[i]
		if !seenPID[r.PID] {
			seenPID[r.PID] = true
			firstTS[r.PID] = r.TS
		}
	}
	winAt := func(step int64) int {
		w := 0
		for k := range wins {
			if wins[k].Step <= step {
				w = k
			}
		}
		return w
	}
	recPIDs := make([]bool, ty.NumSyms())
	pidWin := make([]int, ty.NumSyms())
	ranFaultFree := tf.StartedPIDs()
	for _, pid := range ty.StartedPIDs() {
		if !slices.Contains(ranFaultFree, pid) && pid != "system" {
			if y, ok := ty.Lookup(pid); ok {
				recPIDs[y] = true
				pidWin[y] = winAt(firstTS[y])
			}
			res.RecoveryPIDs = append(res.RecoveryPIDs, pid)
		}
	}
	// Seeds per window: thread starts of that window's recovery processes,
	// plus registered recovery handlers attributed by their own step.
	seedsByWin := make([][]trace.OpID, len(wins))
	for i := range ty.Records {
		r := &ty.Records[i]
		if r.Kind == trace.KThreadStart && recPIDs[r.PID] {
			w := pidWin[r.PID]
			seedsByWin[w] = append(seedsByWin[w], r.ID)
		}
		if r.Kind == trace.KHandlerBegin && r.HasFlag(trace.FlagRecoveryRoot) {
			w := winAt(r.TS)
			seedsByWin[w] = append(seedsByWin[w], r.ID)
		}
	}

	// --- Impact estimation (Section 4.3.3), shared by every window: one pass
	// over the faulty trace inverts the sinks' Taint/Ctl sets into "op
	// reaches a later sink", so each read's check is an O(1) probe.
	impacted := make([]bool, len(ty.Records)+1)
	mark := func(dep, sink trace.OpID) {
		if dep >= 1 && int(dep) < len(impacted) && dep < sink {
			impacted[dep] = true
		}
	}
	for i := range ty.Records {
		s := &ty.Records[i]
		if !isImpactSink(s.Kind) {
			continue
		}
		for _, dep := range s.Taint {
			mark(dep, s.ID)
		}
		for _, dep := range s.Ctl {
			mark(dep, s.ID)
		}
	}

	var reports []*Report
	// vicsThrough accumulates the victims dead by each window's open step —
	// the window's heap-death set for classifyRes.
	var vicsThrough []string
	for wi, win := range wins {
		endWin := opts.Metrics.Span("detect/recovery/window")
		vicsThrough = append(vicsThrough, win.Victim)
		classY := classifyRes(ty, vicsThrough)

		// Recovery operations of this window: forward closure of its seeds.
		recOps := gy.ForwardClosureDense(seedsByWin[wi])
		var recReads []*trace.Record // consumers among recovery ops, ID order
		// earliestRecWrite is the first successful recovery write per
		// resource — all reset (data-dependence) pruning needs.
		earliestRecWrite := make([]trace.OpID, ty.NumSyms())
		for i := range ty.Records {
			r := &ty.Records[i]
			if !recOps[r.ID] {
				continue
			}
			if r.Res == trace.NoSym || classY[r.Res]&resSkip != 0 {
				continue
			}
			if isConsumer(r, createY) {
				recReads = append(recReads, r)
			}
			if r.Kind.IsWriteLike() && !r.HasFlag(trace.FlagFailed) {
				if cur := earliestRecWrite[r.Res]; cur == trace.NoOp || r.ID < cur {
					earliestRecWrite[r.Res] = r.ID
				}
			}
		}

		// --- Step 2: this window's crash writes — the victim's own persistent
		// writes and the persistent/heap writes causally downstream of it —
		// keyed by faulty-run resource Sym so the pair loop needs no per-read
		// translation. A victim of the fault-free run orphans what it did
		// there and could have done had it lived longer. An incarnation
		// victim (a restarted process killed by a later fault) never existed
		// in the fault-free run: it orphans what it actually wrote in the
		// faulty run before the window opened. Writes to a resSkip resource or
		// to one absent from the faulty run could never pair (no recovery read
		// touches them); skipping them only saves work.
		src, g, class, cutoff := ty, gy, classY, win.Step
		inFaulty := !slices.Contains(ranFaultFree, win.Victim)
		if !inFaulty {
			src, g, class, cutoff = tf, gf, classifyRes(tf, vicsThrough), math.MaxInt64
		}
		victim, hasVictim := src.Lookup(win.Victim)
		remote := g.ForwardClosureDense(g.EscapingSeeds(win.Victim))
		crashWrites := make([][]crashWrite, ty.NumSyms())
		for i := range src.Records {
			r := &src.Records[i]
			if r.TS > cutoff || !r.Kind.IsWriteLike() || r.Res == trace.NoSym || r.HasFlag(trace.FlagFailed) {
				continue
			}
			cls := class[r.Res]
			own := hasVictim && r.PID == victim && cls&resPersistent != 0
			rem := remote[r.ID] && cls&(resPersistent|resHeap) != 0
			if cls&resSkip != 0 || !own && !rem {
				continue
			}
			w, resY := crashWrite{r: r, siteY: r.Site, pidY: r.PID, siteOK: true, pidOK: true}, r.Res
			if !inFaulty {
				if resY = mFY[r.Res]; resY == trace.NoSym {
					continue // the resource never appears in the faulty run
				}
				w.siteY, w.siteOK = ty.Lookup(tf.Str(r.Site))
				w.pidY, w.pidOK = ty.Lookup(tf.Str(r.PID))
			}
			crashWrites[resY] = append(crashWrites[resY], w)
		}

		// --- Step 3: conflicting pairs by resource ID.
		type pair struct {
			w *crashWrite
			r *trace.Record
		}
		var pairs []pair
		for _, r := range recReads {
			ws := crashWrites[r.Res]
			for i := range ws {
				w := &ws[i]
				if w.siteOK && w.pidOK && w.siteY == r.Site && w.pidY == r.PID {
					continue // same static op from the same process: no conflict
				}
				pairs = append(pairs, pair{w: w, r: r})
			}
		}

		// --- Step 4a: control-dependence sanity-check pruning (Figure 8).
		// If recovery read R2 control-depends on recovery read R1 and both
		// touch the same resource, R1 is the sanity check protecting R2.
		inCandidates := map[trace.OpID]bool{}
		byRes := map[trace.Sym][]*trace.Record{}
		for _, p := range pairs {
			if !inCandidates[p.r.ID] {
				inCandidates[p.r.ID] = true
				byRes[p.r.Res] = append(byRes[p.r.Res], p.r)
			}
		}
		sanityChecked := map[trace.OpID]bool{}
		for _, rs := range byRes {
			for _, r2 := range rs {
				for _, r1 := range rs {
					if r1.ID == r2.ID {
						continue
					}
					if containsOp(r2.Ctl, r1.ID) {
						sanityChecked[r2.ID] = true
					}
				}
			}
		}

		// --- Step 4b: data-dependence (reset) pruning. A recovery write to
		// the same resource before R means recovery replaced the content.
		resetProtected := func(r *trace.Record) bool {
			w := earliestRecWrite[r.Res]
			return w != trace.NoOp && w < r.ID
		}

		for _, p := range pairs {
			rule := RuleKept
			switch {
			case !opts.DisableDependencePruning && sanityChecked[p.r.ID]:
				rule = RuleSanityCheck
			case !opts.DisableDependencePruning && resetProtected(p.r):
				rule = RuleReset
			case !opts.DisableImpactPruning && !impacted[p.r.ID]:
				rule = RuleImpact
			}
			if opts.Explain {
				res.Decisions = append(res.Decisions, Decision{
					Detector:  CrashRecovery.String(),
					Window:    win.ID,
					Candidate: recoveryCandidate(src, p.w.r, ty, p.r),
					Rule:      rule,
				})
			}
			res.Tally[ruleIndex(rule)]++
			if rule != RuleKept {
				continue
			}

			// Trigger timing (Section 5): if W already executed before this
			// window opened in the faulty run, inject the fault right before
			// it; if it only appears in the fault-free continuation, inject
			// right after it. A write from the faulty run executed before the
			// window by construction; one from the fault-free run counts if
			// its occurrence in the faulty run predates the window (it must,
			// by prefix equality, but stay defensive).
			occ := occurrence(g.Ix, p.w.r)
			wInFaulty := inFaulty
			if !inFaulty && p.w.siteOK {
				if ids := ixY.SiteIDs(p.w.siteY); len(ids) >= occ {
					rec := ty.At(ids[occ-1])
					wInFaulty = rec != nil && rec.TS <= win.Step
				}
			}

			resStr := ty.Str(p.r.Res)
			reports = append(reports, &Report{
				Type:            CrashRecovery,
				OpsDesc:         opsDesc(src, p.w.r, ty, p.r),
				Resource:        resStr,
				ResClass:        normalizeRes(resStr),
				W:               summarize(src, p.w.r, occ),
				R:               summarize(ty, p.r, occurrence(ixY, p.r)),
				WInFaultyRun:    wInFaulty,
				CrashTargetPID:  win.Victim,
				CrashTargetRole: trace.Role(win.Victim),
				WindowID:        win.ID,
				Workload:        workload,
			})
		}
		endWin()
	}
	res.Reports = Dedup(reports)
	res.Tally.publish(opts.Metrics)
	return res
}

func containsOp(set []trace.OpID, id trace.OpID) bool {
	for _, x := range set {
		if x == id {
			return true
		}
	}
	return false
}

// opsDesc renders the Table 2 "Operations" column for a pair; each record's
// Syms resolve through its own trace.
func opsDesc(tw *trace.Trace, w *trace.Record, tr *trace.Trace, r *trace.Record) string {
	return opName(tw, w) + " vs " + opName(tr, r)
}

func opName(t *trace.Trace, r *trace.Record) string {
	switch r.Kind {
	case trace.KHeapWrite:
		return "Write"
	case trace.KHeapRead, trace.KStRead:
		return "Read"
	case trace.KLoopRead:
		return "Loop"
	case trace.KStCreate:
		return "Create"
	case trace.KStDelete:
		return "Delete"
	case trace.KStWrite:
		return "Write"
	case trace.KStRename:
		return "Rename"
	case trace.KStExists:
		return "Exists"
	case trace.KStList:
		return "List"
	case trace.KSignal:
		return "Signal"
	case trace.KWait:
		return "Wait"
	case trace.KKVUpdate:
		switch t.Str(r.Aux) {
		case "create":
			return "Create"
		case "delete":
			return "Delete"
		default:
			return "Write"
		}
	}
	return r.Kind.String()
}
