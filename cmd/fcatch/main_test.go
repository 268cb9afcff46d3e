package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fcatch/internal/trace"
)

// buildCLI builds the command and returns a function that runs it, giving
// the combined output and the exit status.
func buildCLI(t *testing.T) func(args ...string) (string, int) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fcatch")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return func(args ...string) (string, int) {
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("%v: %v", args, err)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}
}

// TestHostileTraceFileFailsClosed: `grep -in` on a well-formed FCT4 file whose
// one record names site 2^31 — a consumer sizing a table by the highest site
// it meets would allocate gigabytes — is refused with the decoder's positioned
// error and exit status 1.
func TestHostileTraceFileFailsClosed(t *testing.T) {
	tr := trace.New()
	tr.Append(trace.Record{Kind: trace.KHeapWrite, PID: tr.Intern("p#1"), Site: 1 << 31})
	hostile := filepath.Join(t.TempDir(), "hostile.fct4")
	if err := tr.Save(hostile); err != nil {
		t.Fatal(err)
	}
	out, status := buildCLI(t)("grep", "-in", hostile)
	if status != 1 {
		t.Fatalf("exit status %d, want 1\n%s", status, out)
	}
	for _, want := range []string{hostile + ": fct4 records section at decompressed offset", "site symbol 2147483648 out of range"} {
		if !strings.Contains(out, want) {
			t.Errorf("output %q lacks %q", out, want)
		}
	}
}

// TestUnknownCommandPrintsUsage: a command the tool does not have — `random`
// was one until `fcatch-campaign -strategy random` replaced it — gets the
// usage text and exit status 2, with or without its former flag.
func TestUnknownCommandPrintsUsage(t *testing.T) {
	run := buildCLI(t)
	if out, status := run("random"); status != 2 || !strings.Contains(out, "usage: fcatch <command>") || strings.Contains(out, "  random") {
		t.Errorf("`fcatch random`: exit status %d, want 2 and a usage text without it\n%s", status, out)
	}
	if out, status := run("random", "-runs", "4"); status != 2 || !strings.Contains(out, "flag provided but not defined: -runs") {
		t.Errorf("`fcatch random -runs 4`: exit status %d, want 2 from flag parsing\n%s", status, out)
	}
}
