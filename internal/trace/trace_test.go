package trace_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"fcatch/internal/trace"
)

func mk(tr *trace.Trace, kind trace.Kind, pid string, thread int, res string) trace.Record {
	return trace.Record{Kind: kind, PID: tr.Intern(pid), Thread: thread, Res: tr.Intern(res)}
}

func TestAppendAssignsDenseOneBasedIDs(t *testing.T) {
	tr := trace.New()
	for i := 0; i < 5; i++ {
		id := tr.Append(mk(tr, trace.KHeapRead, "p", 1, "r"))
		if id != trace.OpID(i+1) {
			t.Fatalf("id %d, want %d", id, i+1)
		}
	}
	if tr.At(0) != nil {
		t.Fatal("At(NoOp) must be nil")
	}
	if tr.At(6) != nil {
		t.Fatal("At(out of range) must be nil")
	}
	if tr.At(3).ID != 3 {
		t.Fatal("At(3) returned wrong record")
	}
}

func TestAtIsInverseOfAppend(t *testing.T) {
	f := func(kinds []uint8) bool {
		tr := trace.New()
		var ids []trace.OpID
		for _, k := range kinds {
			kind := trace.Kind(int(k)%int(trace.KRestart) + 1)
			ids = append(ids, tr.Append(mk(tr, kind, "p", 0, "")))
		}
		for i, id := range ids {
			r := tr.At(id)
			if r == nil || r.ID != id || int(id) != i+1 {
				return false
			}
		}
		return tr.Len() == len(kinds)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindPredicates(t *testing.T) {
	if !trace.KRPCCall.IsCausal() || !trace.KMsgSend.IsCausal() || !trace.KKVUpdate.IsCausal() {
		t.Error("causal kinds misclassified")
	}
	if trace.KHeapWrite.IsCausal() || trace.KWait.IsCausal() {
		t.Error("non-causal kinds misclassified")
	}
	if !trace.KThreadStart.IsActivation() || !trace.KHandlerBegin.IsActivation() {
		t.Error("activation kinds misclassified")
	}
	for _, k := range []trace.Kind{trace.KHeapWrite, trace.KStCreate, trace.KStDelete, trace.KStWrite, trace.KStRename, trace.KKVUpdate} {
		if !k.IsWriteLike() {
			t.Errorf("%v should be write-like", k)
		}
	}
	for _, k := range []trace.Kind{trace.KHeapRead, trace.KLoopRead, trace.KStRead, trace.KStExists, trace.KStList} {
		if !k.IsReadLike() {
			t.Errorf("%v should be read-like", k)
		}
	}
	if trace.KSignal.IsWriteLike() || trace.KWait.IsReadLike() {
		t.Error("signal/wait are not resource accesses")
	}
}

func TestIndexGroupsAndCausality(t *testing.T) {
	tr := trace.New()
	spawn := tr.Append(mk(tr, trace.KThreadCreate, "p", 1, ""))
	start := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("p"), Thread: 2, Causor: spawn})
	read := tr.Append(trace.Record{Kind: trace.KHeapRead, PID: tr.Intern("p"), Thread: 2, Frame: start, Res: tr.Intern("heap:p:o.f")})
	write := tr.Append(trace.Record{Kind: trace.KHeapWrite, PID: tr.Intern("p"), Thread: 2, Frame: start, Res: tr.Intern("heap:p:o.f")})

	ix := trace.BuildIndex(tr)
	resSym, ok := tr.Lookup("heap:p:o.f")
	if !ok {
		t.Fatal("resource never interned")
	}
	if got := ix.ByKind[trace.KHeapRead]; len(got) != 1 || got[0] != read {
		t.Fatalf("ByKind[read] = %v", got)
	}
	if got := ix.ResIDs(resSym); len(got) != 2 {
		t.Fatalf("ByRes = %v", got)
	}
	if got := ix.CauseesOf(spawn); len(got) != 1 || got[0] != start {
		t.Fatalf("CauseesOf(spawn) = %v", got)
	}
	if got := ix.FrameOpsOf(start); len(got) != 2 || got[0] != read || got[1] != write {
		t.Fatalf("FrameOpsOf(start) = %v", got)
	}
	if c := ix.Causor(tr.At(read)); c == nil || c.ID != spawn {
		t.Fatalf("Causor(read) = %v, want the spawn op", c)
	}
}

// TestStartedPIDs: the processes of a run are read from its thread-start
// records, in first-start order, each once — twenty starts of seventeen
// PIDs, more than any simulated cluster runs, interleaved with other records
// of PIDs that never start a thread.
func TestStartedPIDs(t *testing.T) {
	tr := trace.New()
	if got := tr.StartedPIDs(); len(got) != 0 {
		t.Fatalf("empty trace: StartedPIDs = %v", got)
	}
	var want []string
	for i := 0; i < 20; i++ {
		pid := fmt.Sprintf("p%d#1", i%17)
		if i < 17 {
			want = append(want, pid)
		}
		tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern(pid), Thread: i})
		tr.Append(trace.Record{Kind: trace.KHeapWrite, PID: tr.Intern(fmt.Sprintf("q%d#1", i))})
	}
	if got := tr.StartedPIDs(); !slices.Equal(got, want) {
		t.Fatalf("StartedPIDs = %v, want %v", got, want)
	}
}

func TestRole(t *testing.T) {
	for pid, want := range map[string]string{"task2#3": "task2", "hmaster#12": "hmaster", "plain": "plain", "": ""} {
		if got := trace.Role(pid); got != want {
			t.Errorf("Role(%q) = %q, want %q", pid, got, want)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := trace.New()
	tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("y#1")})
	tr.Append(trace.Record{Kind: trace.KCrash, PID: tr.Intern("system"), Aux: tr.Intern("x#1"), TS: 42})
	stack := tr.PushFrame(tr.PushFrame(trace.NoStack, tr.Intern("main")), tr.Intern("fn"))
	for i := 0; i < 20; i++ {
		tr.Append(trace.Record{
			Kind: trace.KStWrite, PID: tr.Intern("x#1"), Thread: i, Res: tr.Intern("gfs:/f"),
			Taint: []trace.OpID{1, 2}, Stack: stack,
		})
	}
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 22 || !slices.Equal(got.StartedPIDs(), []string{"y#1"}) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if c := got.Records[1]; c.Kind != trace.KCrash || got.Str(c.Aux) != "x#1" || c.TS != 42 {
		t.Fatalf("round trip lost the crash record: %s", got.Format(&c))
	}
	if labels := got.StackLabels(got.Records[5].Stack); len(labels) != 2 || labels[1] != "fn" {
		t.Fatalf("record contents lost: stack = %v", labels)
	}

	// A file cut short fails to load with an error naming it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.trace")
	if err := os.WriteFile(cut, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Load(cut); err == nil || !strings.Contains(err.Error(), "trace: "+cut+": ") {
		t.Fatalf("loading a truncated file: err = %v, want one naming %s", err, cut)
	}
}

func TestTraceFormat(t *testing.T) {
	tr := trace.New()
	id := tr.Append(trace.Record{
		TS: 9, PID: tr.Intern("n#1"), Thread: 3, Kind: trace.KMsgSend,
		Aux: tr.Intern("ping"), Target: tr.Intern("m#1"), Site: tr.Intern("a.go:1"),
	})
	s := tr.Format(tr.At(id))
	for _, want := range []string{"#1", "n#1/3", "msg-send", "aux=ping", "->m#1", "@a.go:1"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("Format() = %q missing %q", s, want)
		}
	}
}

func TestFlags(t *testing.T) {
	r := trace.Record{Flags: trace.FlagTimedWait | trace.FlagDropped}
	if !r.HasFlag(trace.FlagTimedWait) || !r.HasFlag(trace.FlagDropped) {
		t.Fatal("flags not set")
	}
	if r.HasFlag(trace.FlagRecoveryRoot) {
		t.Fatal("unset flag reported set")
	}
}
