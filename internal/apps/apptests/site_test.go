package apps_test

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"fcatch/internal/sim"
	"fcatch/internal/storage"
	"fcatch/internal/trace"
)

// The op-site resolver's edge cases, seen from where applications live: this
// file is outside internal/sim and internal/storage, so its frames are app
// frames. Each fixture below performs one op on a line whose trailing comment
// names the case, and TestOpSiteEdgeCases checks the traced op carries exactly
// that line.

// clockHelper is small enough to be inlined into its caller, so the op's
// return address lies in the caller's code: the site must still be the
// helper's own line, not the line the caller invoked it from.
func clockHelper(ctx *sim.Context) sim.Value {
	return ctx.Now() // site:app-helper-inlined
}

// recurse issues its op at the bottom of a direct recursion, where the next
// return address on the stack lies in the same function as the op's.
//
//go:noinline
func recurse(ctx *sim.Context, depth int) {
	if depth == 0 {
		ctx.Now() // site:recursive
		return
	}
	recurse(ctx, depth-1)
}

// callThrough invokes a bound method value; the compiler-generated wrapper
// between it and the sim method is not an app frame.
//
//go:noinline
func callThrough(op func() sim.Value) {
	op() // site:method-value
}

func TestOpSiteEdgeCases(t *testing.T) {
	c := sim.NewCluster(sim.Config{Seed: 1, Tracing: sim.TraceSelective, TraceTickCost: 1})
	kv := storage.NewKV(c)
	c.StartProcess("node", "m0", func(ctx *sim.Context) {
		clockHelper(ctx)
		recurse(ctx, 3)
		callThrough(ctx.Now)

		// Cond.Wait is a sim method small enough to be inlined here, so the
		// innermost frame at the op's return address is a sim frame and the
		// app frame is the function it was inlined into.
		cv := ctx.NewCond("latch")
		cv.Signal(ctx)
		cv.Wait(ctx) // site:sim-method-inlined

		// The KV substrate puts several storage and sim frames between the
		// app's call and the op.
		kv.Create(ctx, "/edge", sim.V(1)) // site:through-storage
	})
	if out := c.Run(); !out.Completed {
		t.Fatalf("run did not complete: %+v", out)
	}

	tr := c.Trace()
	var clockSites []string
	got := map[string]string{}
	for i := range tr.Records {
		r := &tr.Records[i]
		switch r.Kind {
		case trace.KTimeRead:
			clockSites = append(clockSites, tr.Str(r.Site))
		case trace.KWait:
			got["sim-method-inlined"] = tr.Str(r.Site)
		case trace.KKVUpdate:
			got["through-storage"] = tr.Str(r.Site)
		}
	}
	if len(clockSites) != 3 {
		t.Fatalf("traced %d clock reads, want 3: %v", len(clockSites), clockSites)
	}
	got["app-helper-inlined"], got["recursive"], got["method-value"] = clockSites[0], clockSites[1], clockSites[2]

	want := taggedSites(t)
	for name, site := range want {
		if got[name] != site {
			t.Errorf("%s: op site = %q, want %q", name, got[name], site)
		}
	}
	if len(want) != len(got) {
		t.Errorf("fixture tags %v do not match the checked ops %v", want, got)
	}
}

// taggedSites maps every case-naming trailing comment in this file to the site
// string an op on that line must carry.
func taggedSites(t *testing.T) map[string]string {
	t.Helper()
	_, file, _, _ := runtime.Caller(0)
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	parts := strings.Split(file, "/")
	short := strings.Join(parts[len(parts)-3:], "/")

	tag := "// site" + ":" // split so this line is not itself a tag
	sites := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if _, name, ok := strings.Cut(sc.Text(), tag); ok {
			sites[name] = fmt.Sprintf("%s:%d", short, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sites
}
