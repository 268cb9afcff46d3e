package sim

import (
	"context"
	"strings"
	"sync"
	"testing"

	"fcatch/internal/parallel"
)

// This file lives in internal/sim, so every frame it contributes is a
// substrate frame, and the testing package below it is outside the module,
// which callsite never reports either. The "application" frame of these tests
// is parallel.ForEach, whose one-worker path calls its body inline: a module
// file that is not substrate and does not import sim.

// fromApp calls f from the stand-in application frame.
func fromApp(f func(int)) { _ = parallel.ForEach(context.Background(), 1, 1, f) }

const appFrame = "internal/parallel/parallel.go:"

// atDepth calls f below depth extra (substrate) stack frames.
//
//go:noinline
func atDepth(depth int, f func()) {
	if depth == 0 {
		f()
		return
	}
	atDepth(depth-1, f)
}

// Stack depths for the callsite tests: the first non-substrate frame is the
// nearest caller, deep inside the window, or beyond it.
const (
	deepDepth    = sitePCWindow - 6
	outsideDepth = sitePCWindow + 6
)

var resolvableDepths = []struct {
	name  string
	depth int
}{{"near", 0}, {"deep", deepDepth}}

// eachPCSource runs fn once per PC source: the one this port selected and the
// portable runtime.Callers one.
func eachPCSource(t *testing.T, fn func(t *testing.T)) {
	t.Run("selected", fn)
	t.Run("portable", func(t *testing.T) {
		defer UsePortableCallers()()
		fn(t)
	})
}

// TestCallsiteZeroAllocs pins the op-site contract next to
// TestSteadyStateStepZeroAllocs: once a PC is in the cluster's cache, computing
// an op's site allocates nothing, however deep the app frame sits.
func TestCallsiteZeroAllocs(t *testing.T) {
	eachPCSource(t, func(t *testing.T) {
		for _, d := range resolvableDepths {
			c := NewCluster(Config{Seed: 1})
			var id SiteID
			op := func(int) { atDepth(d.depth, func() { id = c.callsite() }) }
			allocs := testing.AllocsPerRun(100, func() { fromApp(op) })
			if allocs != 0 {
				t.Errorf("%s: callsite allocates %.1f times per call, want 0", d.name, allocs)
			}
			if s := c.SiteName(id); !strings.HasPrefix(s, appFrame) {
				t.Errorf("%s: site = %q, want the %s frame that ran the body", d.name, s, appFrame)
			}
		}
	})
}

// TestCallsiteUnknownOutsideWindow: when no app frame lies within the
// sitePCWindow frames above the op, the site is "unknown", not whatever frame
// happens to sit at the window's edge.
func TestCallsiteUnknownOutsideWindow(t *testing.T) {
	eachPCSource(t, func(t *testing.T) {
		c := NewCluster(Config{Seed: 1})
		var id SiteID
		fromApp(func(int) { atDepth(outsideDepth, func() { id = c.callsite() }) })
		if id != c.siteUnknown || c.SiteName(id) != "unknown" {
			t.Fatalf("site = %d %q, want the unknown site", id, c.SiteName(id))
		}
	})
}

// TestResolvePCSharedAcrossClusters drives the process-wide PC table from
// many clusters at once (run under -race): every cluster must read the same
// site for the same stack.
func TestResolvePCSharedAcrossClusters(t *testing.T) {
	const workers = 8
	sites := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := NewCluster(Config{Seed: 1})
				fromApp(func(int) {
					atDepth(i%deepDepth, func() { sites[w] = c.SiteName(c.callsite()) })
				})
			}
		}(w)
	}
	wg.Wait()
	for w, s := range sites {
		if s != sites[0] || s == "" || s == "unknown" {
			t.Fatalf("worker %d resolved %q, worker 0 %q", w, s, sites[0])
		}
	}
}

func BenchmarkCallsite(b *testing.B) {
	for _, d := range resolvableDepths {
		b.Run(d.name, func(b *testing.B) {
			c := NewCluster(Config{Seed: 1})
			fromApp(func(int) {
				atDepth(d.depth, func() {
					c.callsite()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.callsite()
					}
				})
			})
		})
	}
}
