package fcatch

import (
	"slices"
	"strings"

	"fcatch/internal/detect"
	"fcatch/internal/inject"
)

// BugCategory says how a catalogued bug relates to the paper's benchmarks.
type BugCategory int

const (
	// Benchmark bugs come from the TaxDC suite (the "Old" column of Table 3).
	Benchmark BugCategory = iota
	// NonBenchmark bugs are the additional severe bugs FCatch found (the
	// "New" column).
	NonBenchmark
)

// BugSpec is one catalogued TOF bug (a Table 2 row): a static signature that
// matches detector reports plus the paper's metadata.
type BugSpec struct {
	ID        string
	Workloads []string // workloads whose detection reports this bug
	Type      detect.BugType
	Ops       string // Table 2 "Operations" column
	ResHint   string // substring of the report's resource class
	ResKind   string // H / ZK / GF / LF
	Symptom   string
	Category  BugCategory
}

// Catalog lists every true TOF bug planted in the mini systems, mirroring
// Table 2 of the paper.
var Catalog = []BugSpec{
	// Benchmark crash-regular bugs.
	{"CA1", []string{"CA1&2"}, detect.CrashRegular, "Signal vs Wait", "cv:snapshots-done", "H", "AE hangs @ Snapshot", Benchmark},
	{"CA2", []string{"CA1&2"}, detect.CrashRegular, "Signal vs Wait", "cv:trees-done", "H", "AE hangs @ Mtree compare", Benchmark},
	{"HB1", []string{"HB1"}, detect.CrashRegular, "Write vs Loop", "rit#.meta", "H", "HMaster hangs @ MetaOpen (Fig.6)", Benchmark},
	// Benchmark crash-recovery bugs.
	{"HB2", []string{"HB2"}, detect.CrashRecovery, "Create vs Create", "splitlog", "ZK", "Data loss as Get lock fail", Benchmark},
	{"MR1", []string{"MR1"}, detect.CrashRecovery, "Write vs Read", "task#.commit", "H", "Task recovery hangs (Fig. 1)", Benchmark},
	{"MR2", []string{"MR2"}, detect.CrashRecovery, "Delete vs Open", "job.xml", "GF", "AM restart fails as Dir. deleted", Benchmark},
	{"MR2b", []string{"MR2"}, detect.CrashRecovery, "Delete vs Open", "split-#", "GF", "AM restart fails as Dir. deleted (2nd way)", Benchmark},
	{"ZK", []string{"ZK"}, detect.CrashRecovery, "Write vs Read", "currentEpoch", "LF", "Restart fails", Benchmark},
	// Non-benchmark crash-regular bugs.
	{"CA3", []string{"CA1&2"}, detect.CrashRegular, "Write vs Loop", "pendingStreams", "H", "AE hangs @ Mtree repair", NonBenchmark},
	{"HB3", []string{"HB2"}, detect.CrashRegular, "Signal vs Wait", "cv:root-assigned", "H", "HMaster hangs @ ROOT open", NonBenchmark},
	{"HB4", []string{"HB2"}, detect.CrashRegular, "Write vs Loop", "rootLoc", "H", "HMaster hangs @ ROOT open", NonBenchmark},
	{"MR3", []string{"MR1", "MR2"}, detect.CrashRegular, "Signal vs Wait", "cv:rpc-reply", "H", "Hangs @ Any RPC call", NonBenchmark},
	// Non-benchmark crash-recovery bugs.
	{"HB5", []string{"HB2"}, detect.CrashRecovery, "Delete vs Read", "replication/rs###/log#", "ZK", "Data loss as HLog skipped", NonBenchmark},
	{"HB6", []string{"HB2"}, detect.CrashRecovery, "Delete vs Read", "replication/rs###", "ZK", "Data loss as HLog dir. skipped", NonBenchmark},
	{"MR4", []string{"MR1"}, detect.CrashRecovery, "Write vs Read", "task#.state", "H", "Task recovery killed", NonBenchmark},
	{"MR5", []string{"MR2"}, detect.CrashRecovery, "Create vs Exists", "COMMIT_STARTED", "GF", "AM restart fails as Flag-file exists", NonBenchmark},
}

// opsMatch compares a report's operation pair against a catalog signature
// ("Open" in the paper's terminology is a read of storage).
func opsMatch(spec, got string) bool {
	norm := strings.ReplaceAll(spec, "Open", "Read")
	return norm == got
}

// matches reports whether r carries bug s's static signature: its type,
// operation pair and resource hint.
func (s *BugSpec) matches(r *Report) bool {
	return s.Type == r.Type && opsMatch(s.Ops, r.OpsDesc) && strings.Contains(r.ResClass, s.ResHint)
}

// MatchReport finds the catalog entry a report's static signature matches,
// regardless of its trigger verdict (used by the sensitivity study).
func MatchReport(workload string, r *Report) *BugSpec {
	for i := range Catalog {
		s := &Catalog[i]
		if s.matches(r) && slices.Contains(s.Workloads, workload) {
			return s
		}
	}
	return nil
}

// MatchSpec finds the catalog entry a classified report corresponds to
// (nil if the report is not a catalogued true bug).
func MatchSpec(workload string, out *inject.Outcome) *BugSpec {
	if out.Class != inject.TrueBug {
		return nil
	}
	return MatchReport(workload, out.Report)
}

// Spec returns the catalog entry with the given ID (nil if unknown).
func Spec(id string) *BugSpec {
	for i := range Catalog {
		if Catalog[i].ID == id {
			return &Catalog[i]
		}
	}
	return nil
}

// HB6 must not swallow HB5 (its hint is a prefix): MatchReport returns the
// first entry that matches, so the more specific hint comes first in Catalog;
// keep it that way.
var _ = func() struct{} {
	for i, s := range Catalog {
		for j := i + 1; j < len(Catalog); j++ {
			if strings.Contains(Catalog[j].ResHint, s.ResHint) && s.Type == Catalog[j].Type && opsMatch(s.Ops, Catalog[j].Ops) {
				panic("fcatch: catalog order: " + s.ID + " would shadow " + Catalog[j].ID)
			}
		}
	}
	return struct{}{}
}()
