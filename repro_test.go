package fcatch_test

import (
	"strings"
	"testing"

	"fcatch"
)

// TestReproduceEveryCataloguedBug runs the end-to-end reproduction (detect →
// locate report → trigger) for all 16 bugs and checks each confirms as a
// true bug with its documented symptom shape.
func TestReproduceEveryCataloguedBug(t *testing.T) {
	wantKind := map[string]string{
		// Data-loss bugs fail the workload checker; restart/commit bugs log
		// fatally; the rest hang.
		"HB2": "check", "HB5": "check", "HB6": "check",
		"MR2": "fatal", "MR2b": "fatal", "MR5": "fatal", "ZK": "fatal",
	}
	for _, spec := range fcatch.Catalog {
		t.Run(spec.ID, func(t *testing.T) {
			rep, err := fcatch.Reproduce(spec.ID, fcatch.DefaultOptions())
			if err != nil {
				t.Fatalf("Reproduce: %v", err)
			}
			if rep.Outcome.Class != fcatch.TrueBug {
				t.Fatalf("verdict = %v (%s)", rep.Outcome.Class, rep.Outcome.Detail)
			}
			if want, ok := wantKind[spec.ID]; ok && rep.Outcome.FailureKind != want {
				t.Errorf("failure kind = %q, want %q", rep.Outcome.FailureKind, want)
			}
			if fcatch.Details(spec.ID) == "" {
				t.Errorf("bug %s has no reproduction narrative", spec.ID)
			}
			text := rep.Render()
			for _, want := range []string{spec.ID, "prediction:", "trigger:", "verdict:"} {
				if !strings.Contains(text, want) {
					t.Errorf("rendered reproduction missing %q", want)
				}
			}
		})
	}
}

func TestReproduceUnknownBug(t *testing.T) {
	if _, err := fcatch.Reproduce("NOPE", fcatch.DefaultOptions()); err == nil {
		t.Fatal("unknown bug id accepted")
	}
}
