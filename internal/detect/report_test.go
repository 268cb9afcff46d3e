package detect

import (
	"strings"
	"testing"

	"fcatch/internal/trace"
)

func TestReportString(t *testing.T) {
	wp := OpSummary{Op: 3, Kind: trace.KMsgSend, Site: "a.go:1", PID: "a#1"}
	r := &Report{
		Type: CrashRegular, OpsDesc: "Signal vs Wait", ResClass: "cv:x",
		W:      OpSummary{Kind: trace.KSignal, Site: "b.go:2"},
		R:      OpSummary{Kind: trace.KWait, Site: "b.go:3"},
		WPrime: &wp,
	}
	s := r.String()
	for _, want := range []string{"crash-regular", "Signal vs Wait", "cv:x", "signal@b.go:2", "wait@b.go:3", "W'=msg-send@a.go:1(a#1)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestBugTypeString(t *testing.T) {
	if CrashRegular.String() != "crash-regular" || CrashRecovery.String() != "crash-recovery" {
		t.Fatal("bug type names wrong")
	}
}

func TestOpsDescNames(t *testing.T) {
	tr := trace.New()
	mk := func(k trace.Kind, aux string) *trace.Record { return &trace.Record{Kind: k, Aux: tr.Intern(aux)} }
	cases := []struct {
		w, r *trace.Record
		want string
	}{
		{mk(trace.KHeapWrite, ""), mk(trace.KHeapRead, ""), "Write vs Read"},
		{mk(trace.KStDelete, ""), mk(trace.KStRead, ""), "Delete vs Read"},
		{mk(trace.KKVUpdate, "create"), mk(trace.KKVUpdate, "create"), "Create vs Create"},
		{mk(trace.KKVUpdate, "delete"), mk(trace.KStExists, ""), "Delete vs Exists"},
		{mk(trace.KKVUpdate, "set"), mk(trace.KStList, ""), "Write vs List"},
		{mk(trace.KStCreate, ""), mk(trace.KLoopRead, ""), "Create vs Loop"},
		{mk(trace.KStRename, ""), mk(trace.KStRead, ""), "Rename vs Read"},
	}
	for _, c := range cases {
		if got := opsDesc(tr, c.w, tr, c.r); got != c.want {
			t.Errorf("opsDesc = %q, want %q", got, c.want)
		}
	}
}

func TestCorrelateSingletonFallback(t *testing.T) {
	// A report whose read op cannot be resolved still lands in a group.
	ty := trace.New()
	reps := []*Report{{
		Type: CrashRecovery,
		R:    OpSummary{Op: 999, Site: "ghost.go:1"},
		W:    OpSummary{TS: 5},
	}}
	groups := CorrelateRecovery(ty, reps)
	if len(groups) != 1 || len(groups[0].Reports) != 1 {
		t.Fatalf("groups = %+v", groups)
	}
	if groups[0].WindowStart != 5 || groups[0].WindowEnd != 5 {
		t.Fatalf("window = [%d,%d]", groups[0].WindowStart, groups[0].WindowEnd)
	}
}

func TestCorrelateSkipsCrashRegular(t *testing.T) {
	ty := trace.New()
	groups := CorrelateRecovery(ty, []*Report{{Type: CrashRegular}})
	if len(groups) != 0 {
		t.Fatal("crash-regular reports must not be grouped")
	}
}

func TestNormalizeResIdempotent(t *testing.T) {
	for _, s := range []string{
		"heap:am#1:Task2.commit", "cv:x#9:name/3", "gfs:/a/b-17", "zk:/x/y",
	} {
		once := normalizeRes(s)
		if twice := normalizeRes(once); twice != once {
			t.Errorf("normalizeRes not idempotent on %q: %q -> %q", s, once, twice)
		}
	}
}
