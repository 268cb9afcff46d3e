package fcatch_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fcatch"
	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/sim"
)

// TestParseScenarioErrors: every malformed scenario is refused with a
// message naming the offending piece, never silently shortened or zeroed.
func TestParseScenarioErrors(t *testing.T) {
	cases := []struct {
		in   string
		want string // substring of the error
	}{
		{"", "empty scenario"},
		{"   ", "empty scenario"},
		{"step=x", "scenario step"},
		{"occ=x", "scenario occurrence"},
		{"delay=x,target=am", "scenario delay"},
		{"restart=x", "scenario restart"},
		{"action=banana", "scenario action"},
		{"when=sometimes", "scenario when"},
		{"step120", "not key=value"},
		{"wibble=1", "unknown scenario field"},
		// A trailing or leading ";" leaves an empty event: almost always a
		// typo'd or truncated scenario, so it must not parse as a shorter one.
		{"step=120;", "empty scenario event"},
		{";step=120", "empty scenario event"},
		{"step=120;;delay=48", "empty scenario event"},
		// A relative first event has no previous victim to re-crash.
		{"delay=48", "relative with no target"},
		{"delay=48,restart=40", "relative with no target"},
	}
	for _, c := range cases {
		_, err := fcatch.ParseScenario(c.in)
		if err == nil {
			t.Errorf("ParseScenario(%q) accepted, want error containing %q", c.in, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseScenario(%q) error = %q, want substring %q", c.in, err.Error(), c.want)
		}
	}
}

// TestParseScenarioAccepts: the documented forms parse to the right events.
func TestParseScenarioAccepts(t *testing.T) {
	sc, err := fcatch.ParseScenario("step=120,restart=40;delay=48")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc) != 2 || sc[0].CrashStep != 120 || sc[0].Restart == nil || *sc[0].Restart != 40 || sc[1].Delay != 48 {
		t.Fatalf("parsed %+v", sc)
	}
	// A relative first event is fine once it names a target.
	if _, err := fcatch.ParseScenario("delay=48,target=am"); err != nil {
		t.Fatalf("relative first event with target: %v", err)
	}
	sc, err = fcatch.ParseScenario("site=a.go:10,occ=2,when=before,action=kernel-drop")
	if err != nil {
		t.Fatal(err)
	}
	if sc[0].Site != "a.go:10" || sc[0].Occurrence != 2 || sc[0].When != fcatch.WhenBefore || sc[0].Action != fcatch.ActionKernelDrop {
		t.Fatalf("parsed %+v", sc[0])
	}
}

// TestFormatScenarioRoundTrip: ParseScenario(FormatScenario(s)) == s for
// every scenario ParseScenario accepts — pinned cases first, then a seeded
// sweep of random scenarios over the whole field space.
func TestFormatScenarioRoundTrip(t *testing.T) {
	restart := int64(40)
	never := int64(-1)
	pinned := [][]fcatch.FaultSpec{
		{{CrashStep: 120}},
		{{}}, // all-defaults event renders as "step=0"
		{{CrashStep: 120, Restart: &restart}, {Delay: 48}},
		{{Site: "a.go:10", Occurrence: 2, When: fcatch.WhenBefore, Action: fcatch.ActionKernelDrop}},
		{{CrashStep: 7, Target: "worker", Restart: &never}, {Delay: 3, Target: "am"}, {Site: "b.go:2", Action: fcatch.ActionAppDrop}},
	}
	for _, sc := range pinned {
		roundTrip(t, sc)
	}

	rng := rand.New(rand.NewSource(9))
	sites := []string{"", "a.go:10", "apps/hbase/master.go:69"}
	targets := []string{"", "am", "worker"}
	actions := []string{"", fcatch.ActionNodeCrash, fcatch.ActionKernelDrop, fcatch.ActionAppDrop}
	whens := []string{"", fcatch.WhenBefore, fcatch.WhenAfter}
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(3)
		sc := make([]fcatch.FaultSpec, n)
		for j := range sc {
			ev := &sc[j]
			ev.CrashStep = rng.Int63n(200)
			ev.Site = sites[rng.Intn(len(sites))]
			if ev.Site != "" {
				ev.Occurrence = rng.Intn(4)
				ev.When = whens[rng.Intn(len(whens))]
			}
			ev.Action = actions[rng.Intn(len(actions))]
			ev.Target = targets[rng.Intn(len(targets))]
			ev.Delay = rng.Int63n(60)
			if rng.Intn(2) == 0 {
				r := rng.Int63n(50) - 1
				ev.Restart = &r
			}
		}
		// Keep the scenario parseable: a relative first event needs a target.
		if sc[0].Site == "" && sc[0].Delay > 0 && sc[0].Target == "" {
			sc[0].Target = "am"
		}
		roundTrip(t, sc)
	}
}

func roundTrip(t *testing.T, sc []fcatch.FaultSpec) {
	t.Helper()
	s := fcatch.FormatScenario(sc)
	back, err := fcatch.ParseScenario(s)
	if err != nil {
		t.Fatalf("ParseScenario(FormatScenario(%+v) = %q): %v", sc, s, err)
	}
	if !reflect.DeepEqual(back, sc) {
		t.Fatalf("round trip %q: %+v != %+v", s, back, sc)
	}
}

// TestPlanKeyIsAScenario: a campaign plan's corpus key is its -scenario
// string. For every point of every workload's fault space — single-fault and
// both composite enumerators — and for the random strategy's step plans,
// ParseScenario(p.Key()) is exactly p, and no two points share a key.
func TestPlanKeyIsAScenario(t *testing.T) {
	for _, w := range fcatch.Workloads() {
		c, out := core.Run(w, sim.Config{Seed: 1, Tracing: sim.TraceSelective})
		if out.CheckErr != nil {
			t.Fatalf("%s: fault-free run: %v", w.Name(), out.CheckErr)
		}
		sp := campaign.NewSpace(c.Trace(), out.Steps, w.CrashTarget(), 0)
		single := len(sp.Points)
		if err := sp.AppendScenarios(campaign.ScenarioNames(), w.RestartRoles()); err != nil {
			t.Fatal(err)
		}
		if single == 0 || len(sp.Points) == single {
			t.Fatalf("%s: space has %d single and %d composite points", w.Name(), single, len(sp.Points)-single)
		}
		points := append(sp.Points, campaign.Plan{{CrashStep: 1}}, campaign.Plan{{CrashStep: out.Steps}})
		seen := map[string]bool{}
		for _, p := range points {
			key := p.Key()
			if seen[key] {
				t.Fatalf("%s: two points share the key %q", w.Name(), key)
			}
			seen[key] = true
			back, err := fcatch.ParseScenario(key)
			if err != nil {
				t.Fatalf("%s: key %q is not a scenario: %v", w.Name(), key, err)
			}
			if !reflect.DeepEqual(campaign.Plan(back), p) {
				t.Fatalf("%s: key %q parses to %+v, want %+v", w.Name(), key, back, p)
			}
		}
	}
}

// FuzzParseScenario hunts for inputs that crash the parser or break the
// format/parse round trip: anything ParseScenario accepts must re-render via
// FormatScenario to a string that parses back to the identical scenario.
func FuzzParseScenario(f *testing.F) {
	for _, seed := range []string{
		"step=120",
		"step=120,restart=40;delay=48",
		"site=a.go:10,occ=2,when=before,action=kernel-drop",
		"step=7,target=worker,restart=-1;delay=3;site=b.go:2,action=app-drop",
		"delay=48,target=am",
		"step=120;",
		"wibble=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := fcatch.ParseScenario(s)
		if err != nil {
			return // rejected inputs just need to not panic
		}
		if len(sc) == 0 {
			t.Fatalf("ParseScenario(%q) accepted an empty scenario", s)
		}
		out := fcatch.FormatScenario(sc)
		back, err := fcatch.ParseScenario(out)
		if err != nil {
			t.Fatalf("FormatScenario(%q) = %q does not re-parse: %v", s, out, err)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("round trip of %q via %q: %+v != %+v", s, out, back, sc)
		}
	})
}
