package storage_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"fcatch/internal/sim"
	"fcatch/internal/storage"
	"fcatch/internal/trace"
)

// run executes fn as the main of a one-node cluster with selective tracing
// and returns the cluster for trace inspection.
func run(t *testing.T, fn func(ctx *sim.Context)) *sim.Cluster {
	t.Helper()
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective})
	c.StartProcess("node", "m0", fn)
	out := c.Run()
	if !out.Completed() {
		t.Fatalf("run hung: %+v", out.Hung)
	}
	return c
}

func TestGlobalFSCreateReadDelete(t *testing.T) {
	gfs := storage.NewGlobalFS()
	run(t, func(ctx *sim.Context) {
		if _, err := gfs.Create(ctx, "/a/b", sim.V("one")); err != nil {
			t.Errorf("create: %v", err)
		}
		if _, err := gfs.Create(ctx, "/a/b", sim.V("two")); err != storage.ErrAlreadyExists {
			t.Errorf("second create: %v, want ErrAlreadyExists", err)
		}
		v, err := gfs.Read(ctx, "/a/b")
		if err != nil || v.Str() != "one" {
			t.Errorf("read = %q, %v", v.Str(), err)
		}
		if err := gfs.Delete(ctx, "/a/b"); err != nil {
			t.Errorf("delete: %v", err)
		}
		if _, err := gfs.Read(ctx, "/a/b"); err != storage.ErrNotFound {
			t.Errorf("read after delete: %v, want ErrNotFound", err)
		}
		if err := gfs.Delete(ctx, "/a/b"); err != storage.ErrNotFound {
			t.Errorf("double delete: %v, want ErrNotFound", err)
		}
	})
}

func TestGlobalFSWriteCreatesAndOverwrites(t *testing.T) {
	gfs := storage.NewGlobalFS()
	run(t, func(ctx *sim.Context) {
		gfs.Write(ctx, "/w", sim.V("v1"))
		gfs.Write(ctx, "/w", sim.V("v2"))
		v, _ := gfs.Read(ctx, "/w")
		if v.Str() != "v2" {
			t.Errorf("read = %q, want v2", v.Str())
		}
	})
}

func TestGlobalFSExistsAndRename(t *testing.T) {
	gfs := storage.NewGlobalFS()
	run(t, func(ctx *sim.Context) {
		if gfs.Exists(ctx, "/r").Bool() {
			t.Error("exists before create")
		}
		gfs.Write(ctx, "/r", sim.V("x"))
		if !gfs.Exists(ctx, "/r").Bool() {
			t.Error("not exists after write")
		}
		if err := gfs.Rename(ctx, "/r", "/r2"); err != nil {
			t.Errorf("rename: %v", err)
		}
		if gfs.Exists(ctx, "/r").Bool() || !gfs.Exists(ctx, "/r2").Bool() {
			t.Error("rename did not move the file")
		}
		if err := gfs.Rename(ctx, "/missing", "/x"); err != storage.ErrNotFound {
			t.Errorf("rename missing: %v", err)
		}
	})
}

func TestGlobalFSAppend(t *testing.T) {
	gfs := storage.NewGlobalFS()
	run(t, func(ctx *sim.Context) {
		gfs.Append(ctx, "/log", sim.V("a"))
		gfs.Append(ctx, "/log", sim.V("b"))
		gfs.Append(ctx, "/log", sim.V("c"))
		v, _ := gfs.Read(ctx, "/log")
		if v.Str() != "a,b,c" {
			t.Errorf("appended log = %q", v.Str())
		}
	})
}

func TestGlobalFSListAndDeleteTree(t *testing.T) {
	gfs := storage.NewGlobalFS()
	c := run(t, func(ctx *sim.Context) {
		gfs.Write(ctx, "/dir/a", sim.V(1))
		gfs.Write(ctx, "/dir/b", sim.V(2))
		gfs.Write(ctx, "/other", sim.V(3))
		got := gfs.List(ctx, "/dir")
		if len(got) != 2 || got[0] != "/dir/a" {
			t.Errorf("list = %v", got)
		}
		if n := gfs.DeleteTree(ctx, "/dir"); n != 2 {
			t.Errorf("deleteTree removed %d", n)
		}
		if len(gfs.List(ctx, "/dir")) != 0 {
			t.Error("tree not empty after DeleteTree")
		}
		if !gfs.Exists(ctx, "/other").Bool() {
			t.Error("DeleteTree removed an unrelated file")
		}
	})
	// A recursive delete must unlink each child individually (the MR2
	// conflicting-op requirement).
	perChild := 0
	for i := range c.Trace().Records {
		r := &c.Trace().Records[i]
		if res := c.Trace().Str(r.Res); r.Kind == trace.KStDelete && (res == "gfs:/dir/a" || res == "gfs:/dir/b") {
			perChild++
		}
	}
	if perChild != 2 {
		t.Fatalf("per-child delete records = %d, want 2", perChild)
	}
}

func TestLocalFSIsPerMachine(t *testing.T) {
	lfs := storage.NewLocalFS()
	c := sim.NewCluster(sim.Config{Seed: 1})
	c.StartProcess("a", "machine-a", func(ctx *sim.Context) {
		lfs.Write(ctx, "/data", sim.V("from-a"))
	})
	c.StartProcess("b", "machine-b", func(ctx *sim.Context) {
		ctx.Sleep(100)
		if _, err := lfs.Read(ctx, "/data"); err != storage.ErrNotFound {
			t.Errorf("machine-b sees machine-a's file: %v", err)
		}
	})
	c.Run()
	if v, ok := lfs.PeekLocal("machine-a", "/data"); !ok || v != "from-a" {
		t.Fatalf("PeekLocal = %v, %v", v, ok)
	}
}

func TestLocalFSSurvivesProcessCrash(t *testing.T) {
	lfs := storage.NewLocalFS()
	plan := sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: 60}}, "srv", map[string]int64{"srv": 40})
	c := sim.NewCluster(sim.Config{Seed: 1, Plan: plan})
	var recovered string
	c.StartProcess("srv", "m0", func(ctx *sim.Context) {
		if v, err := lfs.Read(ctx, "/state"); err == nil {
			recovered = v.Str() // the restarted incarnation sees the disk
			return
		}
		lfs.Write(ctx, "/state", sim.V("persisted"))
		ctx.Sleep(500)
	})
	out := c.Run()
	if !out.Completed() {
		t.Fatalf("hung: %+v", out.Hung)
	}
	if recovered != "persisted" {
		t.Fatalf("restart read %q, want the pre-crash content", recovered)
	}
}

func TestFailedOpsAreFlagged(t *testing.T) {
	gfs := storage.NewGlobalFS()
	c := run(t, func(ctx *sim.Context) {
		gfs.Write(ctx, "/f", sim.V(1))
		_, _ = gfs.Create(ctx, "/f", sim.V(2)) // fails: exists
		_, _ = gfs.Read(ctx, "/nope")          // fails: missing
	})
	var failedCreate, failedRead bool
	for i := range c.Trace().Records {
		r := &c.Trace().Records[i]
		if r.Kind == trace.KStCreate && r.HasFlag(trace.FlagFailed) {
			failedCreate = true
		}
		if r.Kind == trace.KStRead && r.HasFlag(trace.FlagFailed) {
			failedRead = true
		}
	}
	if !failedCreate || !failedRead {
		t.Fatalf("failed ops not flagged (create=%v read=%v)", failedCreate, failedRead)
	}
}

func TestReadCarriesDefineUseLink(t *testing.T) {
	gfs := storage.NewGlobalFS()
	c := run(t, func(ctx *sim.Context) {
		gfs.Write(ctx, "/d", sim.V("x"))
		_, _ = gfs.Read(ctx, "/d")
	})
	var writeID trace.OpID
	for i := range c.Trace().Records {
		r := &c.Trace().Records[i]
		if r.Kind == trace.KStWrite && c.Trace().Str(r.Res) == "gfs:/d" {
			writeID = r.ID
		}
		if r.Kind == trace.KStRead && c.Trace().Str(r.Res) == "gfs:/d" {
			if r.Src != writeID {
				t.Fatalf("read Src = %d, want the write %d", r.Src, writeID)
			}
		}
	}
}

func TestKVCreateGetSetDelete(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective})
	kv := storage.NewKV(c)
	c.StartProcess("n", "m0", func(ctx *sim.Context) {
		if _, err := kv.Create(ctx, "/z", sim.V("v0")); err != nil {
			t.Errorf("create: %v", err)
		}
		if _, err := kv.Create(ctx, "/z", sim.V("v1")); err != storage.ErrAlreadyExists {
			t.Errorf("re-create: %v", err)
		}
		if err := kv.SetData(ctx, "/z", sim.V("v2")); err != nil {
			t.Errorf("set: %v", err)
		}
		if v, _ := kv.GetData(ctx, "/z"); v.Str() != "v2" {
			t.Errorf("get = %q", v.Str())
		}
		if !kv.Exists(ctx, "/z").Bool() {
			t.Error("exists = false")
		}
		if err := kv.Delete(ctx, "/z"); err != nil {
			t.Errorf("delete: %v", err)
		}
		if err := kv.SetData(ctx, "/z", sim.V("v3")); err != storage.ErrNotFound {
			t.Errorf("set after delete: %v", err)
		}
	})
	c.Run()
}

func TestKVChildren(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1})
	kv := storage.NewKV(c)
	c.StartProcess("n", "m0", func(ctx *sim.Context) {
		_, _ = kv.Create(ctx, "/d/b", sim.V(1))
		_, _ = kv.Create(ctx, "/d/a", sim.V(2))
		_, _ = kv.Create(ctx, "/d/a/nested", sim.V(3))
		got := kv.Children(ctx, "/d")
		if len(got) != 2 || got[0] != "a" || got[1] != "b" {
			t.Errorf("children = %v", got)
		}
	})
	c.Run()
}

func TestKVWatchFiresOnChanges(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective})
	kv := storage.NewKV(c)
	var events []string
	c.StartProcess("watcher", "m0", func(ctx *sim.Context) {
		ctx.Self().HandleEvent("zk-change", func(ctx *sim.Context, payload sim.Value) {
			events = append(events, payload.Str())
		})
		kv.Watch(ctx, "/w", "zk-change", false)
		ctx.Sleep(400)
	})
	c.StartProcess("writer", "m1", func(ctx *sim.Context) {
		ctx.Sleep(50)
		_, _ = kv.Create(ctx, "/w", sim.V(1))
		_ = kv.SetData(ctx, "/w", sim.V(2))
		_ = kv.Delete(ctx, "/w")
	})
	c.Run()
	want := []string{"created:/w", "data:/w", "deleted:/w"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("watch events = %v, want %v", events, want)
	}
}

func TestKVChildWatch(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1})
	kv := storage.NewKV(c)
	var events []string
	c.StartProcess("watcher", "m0", func(ctx *sim.Context) {
		ctx.Self().HandleEvent("kids", func(ctx *sim.Context, payload sim.Value) {
			events = append(events, payload.Str())
		})
		kv.Watch(ctx, "/parent", "kids", true)
		ctx.Sleep(300)
	})
	c.StartProcess("writer", "m1", func(ctx *sim.Context) {
		ctx.Sleep(40)
		_, _ = kv.Create(ctx, "/parent/kid", sim.V(1))
		_ = kv.Delete(ctx, "/parent/kid")
	})
	c.Run()
	if len(events) != 2 || events[0] != "created:/parent/kid" || events[1] != "deleted:/parent/kid" {
		t.Fatalf("child watch events = %v", events)
	}
}

func TestKVEphemeralExpiry(t *testing.T) {
	plan := sim.NewScenarioPlan([]sim.FaultSpec{{CrashStep: 80}}, "owner", nil)
	c := sim.NewCluster(sim.Config{Seed: 1, Plan: plan})
	kv := storage.NewKV(c)
	kv.SetSessionExpiryDelay(120)
	var stillThereAtCrash, goneAtEnd bool
	c.StartProcess("owner", "m0", func(ctx *sim.Context) {
		_, _ = kv.Create(ctx, "/eph", sim.V("me"), storage.Ephemeral())
		ctx.Sleep(1_000)
	})
	c.StartProcess("observer", "m1", func(ctx *sim.Context) {
		ctx.Sleep(120) // after the crash, before the session expires
		stillThereAtCrash = kv.Exists(ctx, "/eph").Bool()
		ctx.Sleep(400)
		goneAtEnd = !kv.Exists(ctx, "/eph").Bool()
	})
	c.Run()
	if !stillThereAtCrash {
		t.Fatal("ephemeral vanished before the session expired")
	}
	if !goneAtEnd {
		t.Fatal("ephemeral survived session expiry")
	}
}

func TestKVSeedAndPeek(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1})
	kv := storage.NewKV(c)
	kv.Seed("/seeded", sim.V("early"))
	var got string
	c.StartProcess("n", "m0", func(ctx *sim.Context) {
		v, _ := kv.GetData(ctx, "/seeded")
		got = v.Str()
	})
	c.Run()
	if got != "early" {
		t.Fatalf("seeded read = %q", got)
	}
	if v, ok := kv.Peek("/seeded"); !ok || v != "early" {
		t.Fatalf("Peek = %v, %v", v, ok)
	}
}

// Property: any sequence of writes to distinct paths reads back exactly.
func TestGlobalFSWriteReadProperty(t *testing.T) {
	f := func(vals []int16) bool {
		gfs := storage.NewGlobalFS()
		ok := true
		c := sim.NewCluster(sim.Config{Seed: 1})
		c.StartProcess("n", "m0", func(ctx *sim.Context) {
			for i, v := range vals {
				gfs.Write(ctx, fmt.Sprintf("/p/%d", i), sim.V(int(v)))
			}
			for i, v := range vals {
				got, err := gfs.Read(ctx, fmt.Sprintf("/p/%d", i))
				if err != nil || got.Int() != int(v) {
					ok = false
				}
			}
		})
		c.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestResourceNamesInTrace pins every store's trace resource names —
// lfs:<machine>:<path>, gfs:<path> and zk:<path> — whether a name was built
// by the op, by Seed or by an earlier op on the same path, and the paths
// List hands back.
func TestResourceNamesInTrace(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective})
	lfs, gfs, kv := storage.NewLocalFS(), storage.NewGlobalFS(), storage.NewKV(c)
	lfs.Seed("machine-a", "/dir/seeded", sim.V("s"))
	gfs.Seed("/g/seeded", sim.V("s"))
	kv.Seed("/z/seeded", sim.V("s"))
	c.StartProcess("a", "machine-a", func(ctx *sim.Context) {
		lfs.Write(ctx, "/dir/f", sim.V(1))
		_, _ = lfs.Read(ctx, "/dir/seeded")
		lfs.Exists(ctx, "/dir/f")
		if got := lfs.List(ctx, "/dir"); !slices.Equal(got, []string{"/dir/f", "/dir/seeded"}) {
			t.Errorf("LocalFS.List = %q", got)
		}
		_ = lfs.Delete(ctx, "/dir/f")
		gfs.Write(ctx, "/g/f", sim.V(2))
		_ = gfs.Rename(ctx, "/g/f", "/g/h")
		if got := gfs.List(ctx, "/g"); !slices.Equal(got, []string{"/g/h", "/g/seeded"}) {
			t.Errorf("GlobalFS.List = %q", got)
		}
		_, _ = kv.Create(ctx, "/z/n", sim.V(3))
		_, _ = kv.GetData(ctx, "/z/seeded")
	})
	c.StartProcess("b", "machine-b", func(ctx *sim.Context) {
		lfs.Write(ctx, "/dir/f", sim.V(4))
	})
	if out := c.Run(); !out.Completed() {
		t.Fatalf("run hung: %+v", out.Hung)
	}
	want := map[string][]string{
		"a": {
			"lfs:machine-a:/dir/f", "lfs:machine-a:/dir/seeded", "lfs:machine-a:/dir/f",
			"lfs:machine-a:/dir", "lfs:machine-a:/dir/f",
			"gfs:/g/f", "gfs:/g/f", "gfs:/g",
			"zk:/z/n", "zk:/z/seeded",
		},
		"b": {"lfs:machine-b:/dir/f"},
	}
	tr := c.Trace()
	for pid, names := range want {
		var got []string
		for _, r := range tr.Filter(trace.Query{PID: pid + "*"}) {
			if res := tr.Str(r.Res); strings.HasPrefix(res, "lfs:") || strings.HasPrefix(res, "gfs:") || strings.HasPrefix(res, "zk:") {
				got = append(got, res)
			}
		}
		if !slices.Equal(got, names) {
			t.Errorf("%s's storage records name\n  %q\nwant\n  %q", pid, got, names)
		}
	}
	if v, ok := lfs.PeekLocal("machine-b", "/dir/f"); !ok || v != 4 {
		t.Errorf("PeekLocal(machine-b) = %v, %v", v, ok)
	}
	if _, ok := lfs.PeekLocal("machine-a", "/dir/f"); ok {
		t.Error("PeekLocal(machine-a) finds the deleted file")
	}
}
