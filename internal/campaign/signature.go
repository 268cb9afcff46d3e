package campaign

import (
	"sort"
	"strconv"
	"strings"

	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// Verdicts the engine assigns to one run.
const (
	// VerdictFailure: the run failed and the failure is not an expected
	// reaction — a bug manifested.
	VerdictFailure = "failure"
	// VerdictExpected: the run failed but the symptom matches the workload's
	// expected behaviors (the "Exp." column of Table 3).
	VerdictExpected = "expected"
	// VerdictTolerated: the system absorbed the fault and finished correctly.
	VerdictTolerated = "tolerated"
)

// Signature is the behavior fingerprint of one injection run: the outcome
// class (sim.Outcome.FailureKind: exception, fatal, hang, check or ok), the
// symptom fingerprint (shared with the random baseline, so "distinct failures
// found" means the same thing for every strategy), and a hash of the site set
// reached after the fault fired (the coverage component; 0 when the run was
// untraced). Two runs with equal signatures exercised the
// same failure mode — or the same tolerance path.
type Signature struct {
	Outcome  string `json:"outcome"`
	Symptom  string `json:"symptom,omitempty"`
	Coverage uint64 `json:"coverage,omitempty"`
	Expected bool   `json:"expected,omitempty"`
	// Windows is the per-window fingerprint of a multi-fault run (see
	// WindowsFingerprint); empty for runs with fewer than two fault firings.
	Windows string `json:"windows,omitempty"`
}

// BehaviorKey is the dedupe-corpus identity: outcome + symptom + coverage.
// Novelty of this key is what the coverage-guided strategy reinvests in.
func (s Signature) BehaviorKey() string {
	key := s.Outcome + "|" + s.Symptom + "|" + strconv.FormatUint(s.Coverage, 16)
	if s.Windows != "" {
		key += "|" + s.Windows
	}
	return key
}

// WindowsFingerprint folds a multi-fault run's hazard windows into the
// behavior signature: one "action@victim" token per fault firing, in firing
// order. The victim keeps its incarnation suffix on purpose —
// "node-crash@task1#2" says the second fault landed on a recovery
// incarnation, i.e. inside the first fault's hazard window — so composite
// corpora distinguish "same symptom, different window" behaviors that a
// symptom string alone would collapse. Runs with fewer than two firings
// fingerprint to "" (the classic single-fault signature is the window-free
// special case).
func WindowsFingerprint(firings []trace.FaultFiring) string {
	if len(firings) < 2 {
		return ""
	}
	var b strings.Builder
	for i := range firings {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(firings[i].Action)
		b.WriteByte('@')
		if firings[i].Victim == "" {
			b.WriteString("none")
		} else {
			b.WriteString(firings[i].Victim)
		}
	}
	return b.String()
}

// Symptom fingerprints a failed run coarsely enough that repeated
// manifestations of one bug collapse to one signature, while different hang
// shapes stay distinct. Fatal logs and exceptions identify a failure more
// precisely than the hang they often also cause, so they take precedence.
// (This is the Section 8.3 baseline's signature function, hoisted here so
// every campaign strategy is measured with the same yardstick.)
func Symptom(out *sim.Outcome) string {
	if len(out.FatalLogs) > 0 {
		return "fatal:" + stripPID(out.FatalLogs[0])
	}
	if len(out.UncaughtExceptions) > 0 {
		return "exception:" + stripPID(out.UncaughtExceptions[0])
	}
	if len(out.Hung) > 0 {
		// Fingerprint by the first hung main thread (cascaded waiters vary
		// run to run and would fragment one bug into many signatures).
		first := out.Hung[0]
		for _, h := range out.Hung {
			if h.Name == "main" && (first.Name != "main" || h.Thread < first.Thread) {
				first = h
			}
		}
		where := first.Reason
		if where == "" {
			where = first.Site
		}
		return "hang:" + trace.Role(first.PID) + "/" + first.Name + "@" + stripPID(where)
	}
	if out.CheckErr != nil {
		return "check:" + out.CheckErr.Error()
	}
	return "unknown"
}

// stripPID removes "#N" incarnation suffixes so signatures are stable across
// restarts.
func stripPID(s string) string {
	var b strings.Builder
	i := 0
	for i < len(s) {
		if s[i] == '#' {
			i++
			for i < len(s) && s[i] >= '0' && s[i] <= '9' {
				i++
			}
			continue
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}

// CoverageFold computes the post-fault site-coverage hash incrementally from
// record windows, so injection runs can fold their records (sim.Config.Fold)
// instead of keeping a full trace per run. Window is a trace.WindowFn; after
// the run, Hash resolves the accumulated site set against the run's symbol
// table.
//
// The fault moment is the first crash bookkeeping record or the first dropped
// send. A site counts when some execution of it has TS >= the fault's TS; if
// the fault never fired, the whole run counts. Timestamps are monotonically
// non-decreasing in simulator traces, which is what lets one forward pass
// replicate the two-pass definition exactly: once the fault record appears,
// every later record is at or past its TS, and the only look-back needed is
// the run of records sharing the fault's own timestamp, which the fold
// buffers.
type CoverageFold struct {
	fired bool
	pre   []bool // all countable sites, used only when the fault never fires
	post  []bool // countable sites at or after the fault moment

	// curTS/curSites buffer the countable sites of the current (pre-fire)
	// timestamp: records that share the fault's TS count even though they
	// precede the fault record in trace order.
	curTS    int64
	curSites []trace.Sym
}

// Window folds one window of records into the coverage state (a
// trace.WindowFn).
func (f *CoverageFold) Window(t *trace.Trace, recs []trace.Record) {
	for i := range recs {
		r := &recs[i]
		if !f.fired && (r.Kind == trace.KCrash || r.HasFlag(trace.FlagDropped)) {
			f.fired = true
			if f.curTS == r.TS {
				for _, y := range f.curSites {
					markSym(&f.post, y)
				}
			}
			f.curSites = nil
		}
		if r.Site == trace.NoSym || r.Kind == trace.KCrash || r.Kind == trace.KRestart {
			continue
		}
		if f.fired {
			markSym(&f.post, r.Site)
			continue
		}
		markSym(&f.pre, r.Site)
		if r.TS != f.curTS {
			f.curTS = r.TS
			f.curSites = f.curSites[:0]
		}
		f.curSites = append(f.curSites, r.Site)
	}
}

// Hash resolves the accumulated site set against t's symbol table and returns
// the FNV-1a hash of the sorted distinct site strings — byte-identical input
// to the materialized postFaultCoverage.
func (f *CoverageFold) Hash(t *trace.Trace) uint64 {
	chosen := f.pre
	if f.fired {
		chosen = f.post
	}
	sites := make([]string, 0, len(chosen))
	for y, ok := range chosen {
		if ok {
			sites = append(sites, t.Str(trace.Sym(y)))
		}
	}
	sort.Strings(sites)
	return hashSiteSet(sites)
}

// markSym sets s[y], growing the slice (amortized doubling) as new symbols
// appear mid-stream.
func markSym(s *[]bool, y trace.Sym) {
	if int(y) >= len(*s) {
		n := 2 * len(*s)
		if n <= int(y) {
			n = int(y) + 1
		}
		grown := make([]bool, n)
		copy(grown, *s)
		*s = grown
	}
	(*s)[y] = true
}

// hashSiteSet is FNV-1a over a sorted site set, with a 0xff separator folded
// in after each string.
func hashSiteSet(sites []string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, s := range sites {
		for j := 0; j < len(s); j++ {
			h ^= uint64(s[j])
			h *= prime64
		}
		h ^= 0xff
		h *= prime64
	}
	return h
}

// postFaultCoverage hashes the set of static sites the system reached at or
// after the moment the fault fired — the kept-trace form, one window over the
// fold (one implementation, one hash).
func postFaultCoverage(tr *trace.Trace) uint64 {
	var f CoverageFold
	f.Window(tr, tr.Records)
	return f.Hash(tr)
}
