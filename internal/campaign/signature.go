package campaign

import (
	"math/bits"
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
// precisely than the hang they often also cause, so they take precedence —
// a fatal log first, unlike Outcome.FailureKind, which ranks an uncaught
// exception above it; every pinned corpus is signed in this order.
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
// a run's facts, so injection runs fold them (a sim.Fold) instead of keeping
// a full trace per run. It reads no dependences, so its runs number no ops
// and merge no taint. After the run, Hash resolves the accumulated SiteIDs
// through the cluster's site strings.
//
// The fault moment is the first crash mark or the first dropped send. A site
// counts when some execution of it has TS >= the fault's TS; if the fault
// never fired, the whole run counts. Timestamps are monotonically
// non-decreasing in simulator runs, which is what lets one forward pass
// replicate the two-pass definition exactly: once the fault fact arrives,
// every later fact is at or past its TS, and the only look-back needed is
// the run of facts sharing the fault's own timestamp, which the fold
// buffers.
type CoverageFold struct {
	fired bool
	pre   []uint64 // bit set of all countable sites, used only when the fault never fires
	post  []uint64 // bit set of countable sites at or after the fault moment

	// curTS/curSites buffer the countable sites of the current (pre-fire)
	// timestamp: facts that share the fault's TS count even though they
	// precede the fault in emission order.
	curTS    int64
	curSites []sim.SiteID
}

// Fact folds one fact into the coverage state.
func (f *CoverageFold) Fact(x *sim.Fact) {
	if !f.fired && (x.Kind == trace.KCrash || x.Flags&trace.FlagDropped != 0) {
		f.fired = true
		if f.curTS == x.TS {
			for _, y := range f.curSites {
				markSite(&f.post, y)
			}
		}
		f.curSites = nil
	}
	if x.Site == sim.NoSite || x.Kind == trace.KCrash || x.Kind == trace.KRestart {
		return
	}
	if f.fired {
		markSite(&f.post, x.Site)
		return
	}
	markSite(&f.pre, x.Site)
	if x.TS != f.curTS {
		f.curTS = x.TS
		f.curSites = f.curSites[:0]
	}
	f.curSites = append(f.curSites, x.Site)
}

// DepSite names no source site: the fold reads no dependences.
func (*CoverageFold) DepSite() string { return "" }

// Hash resolves the accumulated site set through siteName (a run's
// Cluster.SiteName) and returns the FNV-1a hash of the sorted distinct site
// strings.
func (f *CoverageFold) Hash(siteName func(sim.SiteID) string) uint64 {
	chosen := f.pre
	if f.fired {
		chosen = f.post
	}
	n := 0
	for _, w := range chosen {
		n += bits.OnesCount64(w)
	}
	sites := make([]string, 0, n)
	for i, w := range chosen {
		for ; w != 0; w &= w - 1 {
			sites = append(sites, siteName(sim.SiteID(i*64+bits.TrailingZeros64(w))))
		}
	}
	sort.Strings(sites)
	return hashSiteSet(sites)
}

// markSite adds y to the bit set s, growing it (amortized doubling) as new
// sites appear mid-run. SiteIDs are process-wide, so a run's sites are
// spread over the whole table: a bit each keeps the set small.
func markSite(s *[]uint64, y sim.SiteID) {
	w := int(y / 64)
	if w >= len(*s) {
		grown := make([]uint64, max(2*len(*s), w+1))
		copy(grown, *s)
		*s = grown
	}
	(*s)[w] |= 1 << (y % 64)
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
// after the moment the fault fired — the kept-trace form: the trace's records
// through the same fold.
func postFaultCoverage(tr *trace.Trace) uint64 {
	var f CoverageFold
	sim.FoldTrace(&f, tr)
	return f.Hash(func(y sim.SiteID) string { return tr.Str(trace.Sym(y)) })
}
