package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// SiteID is a dense, process-wide identity for a static operation site
// ("file.go:line", the RPC pseudo-sites, "plan", "unknown"). Hot paths —
// trigger matching, occurrence counting, hang bookkeeping, tracing — compare
// and index SiteIDs; the string form lives in the process-wide site table
// and is rendered only at the boundary (outcomes, reports, trace symbol
// tables). A site is the same source position in every cluster, so it is
// interned once per process and its ID never changes; but which ID a site
// gets depends on which sites the process met first, so no output may
// depend on a SiteID's value.
type SiteID uint32

// NoSite is the interned form of the empty site (no site computed this run).
const NoSite SiteID = 0

// unresolvedSite is what a plan event's or a fold's site string stands for
// while the process has not executed that site (lookupSite): no op has it.
const unresolvedSite = ^SiteID(0)

// sitePCWindow is how many stack frames above the simulator's op entry point
// callsite examines before giving up with "unknown".
const sitePCWindow = 24

// siteTable is the process-wide site table: string → SiteID in ids, SiteID →
// string in strs. Only internSite adds a site, under the lock and only when
// ids misses; readers take no lock. strs is append-only and never rewrites a
// slot, so a snapshot of it (Cluster.siteStrs) stays valid however long its
// holder keeps it.
var siteTable struct {
	sync.Mutex
	ids  sync.Map                 // string -> SiteID
	strs atomic.Pointer[[]string] // SiteID -> string; slot 0 is NoSite's ""
}

// The fixed pseudo-sites (sites that are not source positions), interned as
// the package loads.
var (
	sitePlan          = internSite("plan")
	siteUnknown       = internSite("unknown") // no app frame within the PC window
	siteRPCClientWait = internSite(SiteRPCClientWait)
	siteRPCReplySig   = internSite(SiteRPCReplySig)
	siteRPCReplySend  = internSite(SiteRPCReplySend)
)

// internSite returns s's SiteID, adding s to the process-wide table if it is
// not there. Only sites this process's own code produces are interned
// (callsite's strings, the pseudo-sites): a site named from outside — a
// plan's event, a fold's DepSite — is looked up (lookupSite), so no input
// can grow the table.
func internSite(s string) SiteID {
	if s == "" {
		return NoSite
	}
	if id, ok := knownSite(s); ok {
		return id
	}
	siteTable.Lock()
	defer siteTable.Unlock()
	if id, ok := knownSite(s); ok {
		return id
	}
	strs := siteSnapshot()
	if len(strs) == 0 {
		strs = append(strs, "")
	}
	strs = append(strs, s)
	siteTable.strs.Store(&strs)
	id := SiteID(len(strs) - 1)
	siteTable.ids.Store(s, id)
	return id
}

// knownSite returns s's SiteID if the process-wide table holds s, and
// unresolvedSite if not.
func knownSite(s string) (SiteID, bool) {
	if id, ok := siteTable.ids.Load(s); ok {
		return id.(SiteID), true
	}
	return unresolvedSite, false
}

// siteSnapshot returns the process-wide table's SiteID → string slice as it
// stands: every ID handed out before the call indexes it.
func siteSnapshot() []string {
	if p := siteTable.strs.Load(); p != nil {
		return *p
	}
	return nil
}

// pendingSite is a site string a cluster was handed (lookupSite) before the
// process had executed that site, and the SiteID it resolves.
type pendingSite struct {
	name string
	id   *SiteID
}

// lookupSite sets *id to the SiteID of a site named from outside the
// process's code (a plan's event site, a fold's DepSite) without interning
// it. A site the process has not executed yet is left unresolvedSite until
// the cluster's own callsite first interns its string (intern), which is
// before any op can run there.
func (c *Cluster) lookupSite(s string, id *SiteID) {
	if s == "" {
		*id = NoSite
		return
	}
	var ok bool
	if *id, ok = knownSite(s); !ok {
		c.pendingSites = append(c.pendingSites, pendingSite{s, id})
	}
}

// intern interns s on the cluster's behalf: its snapshot and SiteID-indexed
// tables then cover the ID, and whatever was looked up under s before the
// process ran it resolves now.
func (c *Cluster) intern(s string) SiteID {
	id := internSite(s)
	if int(id) >= len(c.siteStrs) {
		c.refreshSites()
	}
	c.pendingSites = slices.DeleteFunc(c.pendingSites, func(p pendingSite) bool {
		if p.name == s {
			*p.id = id
		}
		return p.name == s
	})
	return id
}

// refreshSites takes a new snapshot of the process-wide site table and grows
// the cluster's SiteID-indexed tables to its length.
func (c *Cluster) refreshSites() {
	c.siteStrs = siteSnapshot()
	n := len(c.siteStrs)
	c.siteSyms = grown(c.siteSyms, n)
	c.siteCounts = grown(c.siteCounts, n)
	c.siteSeen = grown(c.siteSeen, n)
}

// grown returns s extended with zero entries to length n.
func grown[S ~[]E, E any](s S, n int) S {
	if len(s) >= n {
		return s
	}
	return append(s, make(S, n-len(s))...)
}

// SiteName renders a SiteID back to its string form (boundary output only).
// It answers from the cluster's snapshot of the process-wide table, which
// stays valid after the run.
func (c *Cluster) SiteName(id SiteID) string {
	if int(id) < len(c.siteStrs) {
		return c.siteStrs[id]
	}
	return ""
}

// callsite walks up the Go call stack to the first frame outside the
// simulator and storage substrates — the static operation ID the paper gets
// from bytecode positions. Sites are stable across runs (they are source
// positions), which is what lets the triggering module aim a fault at a
// reported operation.
//
// The stack comes from callerPCs (the frame-pointer chain where Go keeps
// one, runtime.Callers elsewhere). Program counters are memoized in the
// cluster's PC cache, which rides the spare from run to run and is never
// cleared (a SiteID never goes stale; NoSite marks substrate frames to
// skip), so a warm cluster's steady state is one map probe per frame, with
// no lock and no allocation. A miss costs one lookup in the process-wide
// PC → site-string table and one in the site table.
//
// callsite must stay a real frame: the frame-pointer source finds the stack
// above it by skipping exactly one saved frame pointer.
//
//go:noinline
func (c *Cluster) callsite() SiteID {
	n := callerPCs(c.sitePCs[:])
	for _, pc := range c.sitePCs[:n] {
		id, ok := c.siteCache[pc]
		if !ok {
			id = c.intern(resolvePC(pc))
			c.siteCache[pc] = id
		}
		if id != NoSite {
			return id
		}
	}
	return siteUnknown
}

// portableCallers is the PC source for ports without frame pointers: the
// logical (inlining-expanded) PCs of runtime.Callers, starting where callsite
// always has — above callsite's own caller, Context.site.
func portableCallers(pcs []uintptr) int {
	// 0 runtime.Callers, 1 portableCallers, 2 callsite, 3 Context.site.
	return runtime.Callers(4, pcs)
}

// pcSites is the process-wide return-PC → site-string table ("" = every frame
// at the PC is substrate). A PC means the same source position in every
// cluster, so the thousands of short-lived clusters a sweep builds symbolize
// and format each PC once per process, not once per cluster.
var pcSites sync.Map

// resolvePC renders the site for one return PC: the innermost frame at the PC
// that lies outside the sim/storage substrate, looking through every function
// inlined there; "" when all of them are substrate. The answer depends on the
// PC alone, so physical return addresses (frame-pointer source) and the
// logical PCs of runtime.Callers share the table: a logical PC resolves to
// the same first app frame its following virtual PCs would have produced.
func resolvePC(pc uintptr) string {
	if s, ok := pcSites.Load(pc); ok {
		return s.(string)
	}
	s := symbolizePC(pc)
	pcSites.Store(pc, s)
	return s
}

func symbolizePC(pc uintptr) string {
	// CallersFrames yields the outer frames of functions inlined at a PC only
	// while further PCs follow it in the list — handed a lone physical return
	// address it stops at the innermost inlined frame. The trailing zero is
	// that "further PC": it belongs to no function and yields no frame.
	frames := runtime.CallersFrames([]uintptr{pc, 0})
	for {
		fr, more := frames.Next()
		if fr.File != "" && !substrateFile(fr.File) {
			return fmt.Sprintf("%s:%d", trimPath(fr.File), fr.Line)
		}
		if !more {
			return ""
		}
	}
}

// substrateFile reports whether a frame's file can never be an op site: the
// machinery between an application op and callsite (the simulator, the
// storage substrates, and compiler-generated method wrappers, which
// runtime.Callers elides and the frame-pointer chain does not), and every
// file outside this module. The Go runtime and standard library sit at the
// bottom of each thread's stack (runtime.goexit), and their source positions
// differ by architecture and Go release; an op issued with no application
// frame above it — a substrate's own event handler — must resolve to
// "unknown", not to wherever goexit lives on this host.
func substrateFile(file string) bool {
	return file == "<autogenerated>" ||
		!strings.HasPrefix(file, moduleRoot) ||
		strings.Contains(file, "/internal/sim/") ||
		strings.Contains(file, "/internal/storage/")
}

// moduleRoot is the path prefix every source file of this module was compiled
// under (a directory, or the module path under -trimpath), read off this
// file's own recorded name.
var moduleRoot = func() string {
	_, file, _, _ := runtime.Caller(0)
	return strings.TrimSuffix(file, "internal/sim/site.go")
}()

// trimPath keeps the last three path segments, enough to be unique and
// readable ("internal/apps/hbase/master.go").
func trimPath(p string) string {
	parts := strings.Split(p, "/")
	if len(parts) <= 3 {
		return p
	}
	return strings.Join(parts[len(parts)-3:], "/")
}
