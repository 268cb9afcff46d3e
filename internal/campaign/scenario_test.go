package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fcatch/internal/apps/toy"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// TestRetiredCorpusSchemasFailClosed: the corpus has one schema. The
// pre-scenario fixture (no version field), a version-2 corpus (first event +
// "then") and a corpus from a newer generation are each refused — by
// LoadCorpus before anything is decoded, and by Resume for a corpus that
// reached it some other way — with the version found in the message.
func TestRetiredCorpusSchemasFailClosed(t *testing.T) {
	for _, c := range []struct {
		file    string
		version int
	}{
		{"testdata/legacy_v1.corpus.json", 0},
		{"testdata/retired_v2.corpus.json", 2},
		{"testdata/future_v4.corpus.json", 4},
	} {
		want := fmt.Sprintf("schema version %d", c.version)
		if cor, err := LoadCorpus(c.file); err == nil || cor != nil || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadCorpus(%s) = %v, %v; want an error naming %q", c.file, cor, err, want)
		}
		prior := &Corpus{Version: c.version, Workload: "TOY", Strategy: StrategyCoverage, Seed: 2}
		cfg := Config{Strategy: StrategyCoverage, Seed: 2, Budget: 4}
		if res, err := resume(toy.New(), cfg, prior); err == nil || res != nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Resume(version %d) = %v, %v; want an error naming %q", c.version, res, err, want)
		}
	}
}

// TestDecodeCorpusValidates: every way a version-3 corpus can be malformed is
// refused with a message naming the offending piece — nothing is replayed as
// a fault-free run, lowered to a different fault, or counted twice.
func TestDecodeCorpusValidates(t *testing.T) {
	corpus := func(entries string) string {
		return `{"version": 3, "workload": "TOY", "strategy": "coverage-guided", "seed": 1, "entries": [` + entries + `]}`
	}
	entry := func(index int, plan string) string {
		return fmt.Sprintf(`{"index": %d, "plan": %s, "signature": {"outcome": "ok"}, "verdict": "tolerated"}`, index, plan)
	}
	good := corpus(entry(0, `[{"crash_step": 7}]`) + "," +
		entry(1, `[{"site": "a.go:1", "when": "after", "action": "app-drop"}]`))
	if c, err := DecodeCorpus([]byte(good)); err != nil || len(c.Entries) != 2 {
		t.Fatalf("well-formed corpus refused: %v", err)
	}
	for _, c := range []struct{ name, body, want string }{
		{"null plan", corpus(entry(0, `null`)), "entry 0: sim: empty scenario"},
		{"empty plan", corpus(entry(0, `[]`)), "entry 0: sim: empty scenario"},
		{"missing plan", corpus(`{"index": 0, "verdict": "tolerated"}`), "empty scenario"},
		{"unknown action", corpus(entry(0, `[{"site": "a.go:1", "action": "meteor"}]`)), `scenario action "meteor"`},
		{"unknown edge", corpus(entry(0, `[{"site": "a.go:1", "when": "during"}]`)), `scenario when "during"`},
		{"negative occurrence", corpus(entry(0, `[{"site": "a.go:1", "occurrence": -2}]`)), "occurrence -2"},
		{"index gap", corpus(entry(0, `[{"crash_step": 7}]`) + "," + entry(2, `[{"crash_step": 8}]`)), "entry 1 carries index 2"},
		{"duplicate index", corpus(entry(0, `[{"crash_step": 7}]`) + "," + entry(0, `[{"crash_step": 8}]`)), "entry 1 carries index 0"},
		{"object plan", corpus(entry(0, `{"crash_step": 7}`)), "cannot unmarshal"},
		{"truncated", corpus(entry(0, `[{"crash_step": 7}]`))[:60], "unexpected end"},
		{"not an object", `[3]`, "schema version 0"},
	} {
		got, err := DecodeCorpus([]byte(c.body))
		if err == nil || got != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: DecodeCorpus = %v, %v; want an error containing %q", c.name, got, err, c.want)
		}
	}
}

// FuzzDecodeCorpus: corpus bytes are a trust boundary. Whatever DecodeCorpus
// accepts is the current schema with well-formed plans at their own indices,
// and survives a Save-shaped round trip; everything else is an error, never a
// panic.
func FuzzDecodeCorpus(f *testing.F) {
	f.Add([]byte(`{"version": 3, "workload": "TOY", "strategy": "random", "seed": 1, "entries": [` +
		`{"index": 0, "plan": [{"crash_step": 7}], "signature": {"outcome": "ok"}, "verdict": "tolerated"}]}`))
	legacy, err := os.ReadFile("testdata/legacy_v1.corpus.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add(legacy[:len(legacy)/2])
	f.Add([]byte(`{"version": 4, "entries": []}`))
	f.Add([]byte(`{"version": 3, "entries": [{"index": 0, "plan": [{"site": "a.go:1", "action": "meteor"}]}]}`))
	f.Add([]byte(`{"version": 3, "entries": [{"index": 0, "plan": []}]}`))
	f.Add(bytes.Repeat([]byte("["), 1<<20))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCorpus(data)
		if err != nil {
			return
		}
		if c.Version != CorpusVersion {
			t.Fatalf("accepted schema version %d", c.Version)
		}
		for i, e := range c.Entries {
			if e.Index != i {
				t.Fatalf("accepted entry %d with index %d", i, e.Index)
			}
			if err := sim.ValidateScenario(e.Plan); err != nil {
				t.Fatalf("accepted entry %d with plan %+v: %v", i, e.Plan, err)
			}
		}
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("accepted corpus does not re-encode: %v", err)
		}
		if _, err := DecodeCorpus(out); err != nil {
			t.Fatalf("re-encoded corpus refused: %v", err)
		}
	})
}

// TestRandomCorpusHasNoTarget: lowering a step plan aims it at the workload's
// crash target on the run's own copy of the events. Run under -race at
// Parallelism 4 this also proves no run writes the plans the batch shares;
// the saved corpus shows none of them leaked a "target".
func TestRandomCorpusHasNoTarget(t *testing.T) {
	res, err := run(toy.New(), Config{Strategy: StrategyRandom, Seed: 1, Budget: 48, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "random.json")
	if err := res.Corpus.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"target"`)) {
		t.Fatalf("random-strategy corpus carries a target:\n%s", data)
	}
	if !bytes.Contains(data, []byte(`"version": 3`)) {
		t.Fatal("saved corpus is not stamped with the schema version")
	}
}

// TestScenarioSpaceAppends: composite enumerators strictly extend the
// single-fault space (the scenarios-off space is an exact prefix, so every
// legacy plan keeps its index), and unknown enumerator names are rejected
// with the valid vocabulary.
func TestScenarioSpaceAppends(t *testing.T) {
	w := toy.New()
	c, steps := tracedFaultFree(t, w)

	base := NewSpace(c.Trace(), steps, w.CrashTarget(), 0)
	sp := NewSpace(c.Trace(), steps, w.CrashTarget(), 0)
	if err := sp.AppendScenarios(ScenarioNames(), w.RestartRoles()); err != nil {
		t.Fatalf("AppendScenarios: %v", err)
	}
	if len(sp.Points) <= len(base.Points) {
		t.Fatalf("scenario enumeration added nothing: %d -> %d points", len(base.Points), len(sp.Points))
	}
	for i, p := range base.Points {
		if sp.Points[i].Key() != p.Key() {
			t.Fatalf("point %d changed: %q vs %q — single-fault space must be a prefix", i, sp.Points[i].Key(), p.Key())
		}
	}
	seen := map[string]bool{}
	for _, p := range sp.Points {
		k := p.Key()
		if seen[k] {
			t.Fatalf("duplicate plan key %q", k)
		}
		seen[k] = true
	}

	if err := sp.AppendScenarios([]string{"crash+meteor"}, nil); err == nil ||
		!strings.Contains(err.Error(), ScenarioRecoveryCrash) {
		t.Fatalf("unknown scenario name accepted: err = %v", err)
	}
}

// TestRecoveryCrashScenarioFires: a crash+recovery-crash plan injects both
// crashes — the second landing on the victim's restarted incarnation — which
// no single-fault plan can do.
func TestRecoveryCrashScenarioFires(t *testing.T) {
	w := toy.New()
	c, steps := tracedFaultFree(t, w)
	sp := NewSpace(c.Trace(), steps, w.CrashTarget(), 0)
	before := len(sp.Points)
	if err := sp.AppendScenarios([]string{ScenarioRecoveryCrash}, w.RestartRoles()); err != nil {
		t.Fatal(err)
	}

	fired := false
	for _, p := range sp.Points[before:] {
		fp := p.simPlan(sp.Target, w.RestartRoles())
		rcfg := sim.Config{Seed: 1, Tracing: sim.TraceOff, Plan: fp}
		w.Tune(&rcfg)
		cl := sim.NewCluster(rcfg)
		w.Configure(cl)
		out := cl.Run()

		var pids []string
		for _, f := range out.FaultFirings {
			pids = append(pids, f.Victim)
		}
		if len(pids) < 2 {
			continue // the first crash can land where no restart follows
		}
		fired = true
		if pids[0] == pids[1] {
			t.Fatalf("second crash hit the same incarnation: %v", pids)
		}
		if trace.Role(pids[0]) != trace.Role(pids[1]) {
			t.Fatalf("second crash hit a different role: %v", pids)
		}
	}
	if !fired {
		t.Fatal("no recovery-crash plan ever fired its second crash")
	}
}

// TestScenarioConfigGating: the engine refuses scenario enumeration with a
// strategy that never enumerates the site space, and refuses to resume a
// corpus under a different scenario set.
func TestScenarioConfigGating(t *testing.T) {
	if _, err := run(toy.New(), Config{Strategy: StrategyRandom, Seed: 1, Budget: 4,
		Scenarios: []string{ScenarioRecoveryCrash}}); err == nil {
		t.Fatal("random strategy accepted -scenarios")
	}

	cfg := Config{Strategy: StrategyCoverage, Seed: 7, Budget: 10, Parallelism: 1,
		Scenarios: []string{ScenarioRecoveryCrash}}
	res, err := run(toy.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Corpus.Scenarios, cfg.Scenarios) {
		t.Fatalf("corpus did not record the scenario set: %v", res.Corpus.Scenarios)
	}
	cfg.Scenarios = nil
	if _, err := resume(toy.New(), cfg, res.Corpus); err == nil {
		t.Fatal("resume with a different scenario set should fail")
	}
}
