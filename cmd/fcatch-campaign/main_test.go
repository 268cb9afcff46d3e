package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fcatch/internal/trace"
)

// buildCLI builds the command and returns a function that runs it.
func buildCLI(t *testing.T) func(args ...string) (string, error) {
	bin := filepath.Join(t.TempDir(), "fcatch-campaign")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return func(args ...string) (string, error) {
		out, err := exec.Command(bin, args...).CombinedOutput()
		return string(out), err
	}
}

// TestRetiredCorpusSchemasFailClosed drives the built CLI: -resume and -diff
// refuse the pre-scenario fixture, a version-2 corpus and a version-4 corpus
// with the version found in the message, and a corpus the CLI saved itself
// resumes — its entries' keys being -scenario strings.
func TestRetiredCorpusSchemasFailClosed(t *testing.T) {
	run := buildCLI(t)

	good := filepath.Join(t.TempDir(), "toy.json")
	if out, err := run("-workload", "TOY", "-runs", "12", "-scenarios", "crash+recovery-crash", "-corpus", good); err != nil {
		t.Fatalf("campaign: %v\n%s", err, out)
	}
	if data, err := os.ReadFile(good); err != nil || !strings.Contains(string(data), `"version": 3`) {
		t.Fatalf("saved corpus is not stamped version 3 (%v)", err)
	}
	if out, err := run("-resume", good, "-runs", "16"); err != nil || !strings.Contains(out, "from 12 cached run(s)") {
		t.Fatalf("resume of a version-3 corpus: %v\n%s", err, out)
	}

	testdata := filepath.Join("..", "..", "internal", "campaign", "testdata")
	for file, version := range map[string]string{
		"legacy_v1.corpus.json": "0", "retired_v2.corpus.json": "2", "future_v4.corpus.json": "4",
	} {
		bad := filepath.Join(testdata, file)
		for _, args := range [][]string{{"-resume", bad}, {"-diff", good, "-diff2", bad}, {"-diff", bad, "-diff2", good}} {
			out, err := run(args...)
			if err == nil || !strings.Contains(out, "schema version "+version+",") {
				t.Errorf("%v: err = %v, output %q; want a refusal naming schema version %s", args, err, out, version)
			}
		}
	}
}

// TestHostileSpaceTraceFailsClosed: -space-trace on a well-formed FCT2 file
// whose one record names site 2^31 — the fault-space fold sizes a table by
// the highest site it meets — is refused with the decoder's positioned error
// and exit status 1.
func TestHostileSpaceTraceFailsClosed(t *testing.T) {
	tr := trace.New()
	tr.Append(trace.Record{Kind: trace.KHeapWrite, PID: tr.Intern("p#1"), Site: 1 << 31})
	hostile := filepath.Join(t.TempDir(), "hostile.fct2")
	if err := tr.Save(hostile); err != nil {
		t.Fatal(err)
	}
	out, err := buildCLI(t)("-workload", "TOY", "-runs", "4", "-space-trace", hostile)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1\n%s", err, out)
	}
	for _, want := range []string{"fct2 records section at decompressed offset", "site symbol 2147483648 out of range"} {
		if !strings.Contains(out, want) {
			t.Errorf("output %q lacks %q", out, want)
		}
	}
}
