package fcatch_test

import (
	"fmt"
	"strings"
	"testing"

	"fcatch"
)

// The composite observation scenarios mirror the PR 8 campaign shapes that
// reach failures no single fault can (EXPERIMENTS.md): MR1's
// crash+recovery-crash (crash a task blocked in an RPC wait, restart it,
// crash the fresh incarnation inside its recovery) and HB1's crash+drop
// (crash the master, then drop a message its restarted incarnation sends
// during recovery). Both observations are tolerated — MR1's AM reschedules
// when the incarnation stays down, HB1's timeout monitor force-completes the
// dropped assignment — which is exactly what core.Observe requires; the
// harm surfaces when TriggerCompounds perturbs the recovery policy.
var compositeScenarios = map[string]string{
	"MR1": "site=sim/rpc.go:client-wait,occ=1,when=before,restart=40;delay=48",
	"HB1": "site=apps/hbase/master096.go:202,occ=1,when=before,restart=150;" +
		"site=apps/hbase/master096.go:240,occ=1,when=before,action=kernel-drop",
}

// TestCompoundDetectionOnCompositeScenarios: on a composite observation the
// detection pass derives one hazard window per fault, pairs them (the second
// fault fires inside the first window's recovery), and the compound report's
// two window anchors replay to a real failure under a perturbed recovery
// policy.
func TestCompoundDetectionOnCompositeScenarios(t *testing.T) {
	for _, wl := range []string{"MR1", "HB1"} {
		t.Run(wl, func(t *testing.T) {
			w := fcatch.MustWorkload(wl)
			opts := fcatch.DefaultOptions()
			sc, err := fcatch.ParseScenario(compositeScenarios[wl])
			if err != nil {
				t.Fatal(err)
			}
			opts.Scenario = sc
			res, err := fcatch.Detect(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Windows) < 2 {
				t.Fatalf("windows = %d, want >= 2 (one per fault firing)", len(res.Windows))
			}
			if len(res.Compound) == 0 {
				t.Fatal("no compound reports on a composite scenario")
			}
			c := res.Compound[0]
			if c.Outer.Victim == "" || c.Inner.Victim == "" {
				t.Fatalf("compound anchors missing victims: %s", c)
			}
			if !c.Outer.Contains(c.Inner.Step) {
				t.Fatalf("inner fault @%d not inside outer window [%d..%d]",
					c.Inner.Step, c.Outer.Step, c.Outer.CloseStep)
			}
			// The report's two window anchors must reproduce the failure.
			outs := fcatch.TriggerCompounds(w, res)
			if len(outs) != len(res.Compound) {
				t.Fatalf("%d compound outcomes for %d reports", len(outs), len(res.Compound))
			}
			out := outs[0]
			if out.Compound != c {
				t.Fatalf("first outcome replays %s, want %s", out.Compound, c)
			}
			if out.Class == fcatch.Benign {
				t.Fatalf("compound replay benign: %s (%s)", out.FailureKind, out.Detail)
			}
			if out.FailureKind == "" {
				t.Fatalf("compound replay produced no failure: %+v", out)
			}
			if out.Variant == "" || out.Variant == "as-observed" {
				t.Fatalf("verdict variant %q: the observation is tolerated by "+
					"construction, so the failure must come from a perturbed policy", out.Variant)
			}
			if len(out.Scenario) != 2 {
				t.Fatalf("compound scenario has %d events, want 2 (one per window anchor)", len(out.Scenario))
			}
			// Reports anchored in later windows carry their window in the key,
			// so they never dedup against window-0 findings.
			for _, r := range res.Reports {
				if r.WindowID < 0 || r.WindowID >= len(res.Windows) {
					t.Fatalf("report window %d out of range (%d windows)", r.WindowID, len(res.Windows))
				}
			}
		})
	}
}

// TestCompoundZeroOnSingleFault: a classic single-fault observation lowers
// to exactly one hazard window and never produces compound reports.
func TestCompoundZeroOnSingleFault(t *testing.T) {
	for _, wl := range []string{"MR1", "HB1"} {
		res, err := fcatch.Detect(fcatch.MustWorkload(wl), fcatch.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Windows) != 1 {
			t.Fatalf("%s: windows = %d, want exactly 1", wl, len(res.Windows))
		}
		if len(res.Compound) != 0 {
			t.Fatalf("%s: single-fault observation produced %d compound reports", wl, len(res.Compound))
		}
		for _, r := range res.Reports {
			if r.WindowID != 0 {
				t.Fatalf("%s: single-fault report in window %d", wl, r.WindowID)
			}
		}
	}
}

// TestCompoundVariantsParallelismInvariant: TriggerCompounds replays a
// report's recovery-policy variants across res.Options.Parallelism workers
// and reduces their verdicts in variant order, so every setting gives the
// same outcomes.
func TestCompoundVariantsParallelismInvariant(t *testing.T) {
	for _, wl := range []string{"MR1", "HB1"} {
		w := fcatch.MustWorkload(wl)
		opts := fcatch.DefaultOptions()
		sc, err := fcatch.ParseScenario(compositeScenarios[wl])
		if err != nil {
			t.Fatal(err)
		}
		opts.Scenario = sc
		res, err := fcatch.Detect(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		for _, p := range []int{1, 2, 0} {
			res.Options.Parallelism = p
			var b strings.Builder
			for _, o := range fcatch.TriggerCompounds(w, res) {
				fmt.Fprintf(&b, "%s -> %v %s (%s) via %s %s\n", o.Compound.Key(), o.Class, o.FailureKind, o.Detail,
					o.Variant, fcatch.FormatScenario(o.Scenario))
			}
			if p == 1 {
				want = b.String()
				if want == "" {
					t.Fatalf("%s: no compound outcomes", wl)
				}
				continue
			}
			if got := b.String(); got != want {
				t.Errorf("%s: Parallelism %d:\n%s\nParallelism 1:\n%s", wl, p, got, want)
			}
		}
	}
}
