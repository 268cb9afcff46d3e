package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildBin builds the command and returns the binary's path.
func buildBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fcatch-campaign")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// buildCLI builds the command and returns a function that runs it.
func buildCLI(t *testing.T) func(args ...string) (string, error) {
	bin := buildBin(t)
	return func(args ...string) (string, error) {
		out, err := exec.Command(bin, args...).CombinedOutput()
		return string(out), err
	}
}

// liveCLI is a running campaign whose stderr the test follows line by line.
type liveCLI struct {
	t     *testing.T
	cmd   *exec.Cmd
	lines chan string // stderr, closed at EOF
	log   []string
}

// tail is the last stderr lines read, for failure messages (a live campaign
// prints a progress line per batch).
func (p *liveCLI) tail() string {
	return strings.Join(p.log[max(0, len(p.log)-20):], "\n")
}

// progressLine matches a -progress line; group 1 is the committed run count.
var progressLine = regexp.MustCompile(`(\d+)/\d+ runs \(`)

// startCLI starts the command with stdout discarded. The test's cleanup kills
// it, so a failed assertion cannot leave a two-million-run campaign behind.
func startCLI(t *testing.T, bin string, args ...string) *liveCLI {
	t.Helper()
	p := &liveCLI{t: t, cmd: exec.Command(bin, args...), lines: make(chan string, 64)}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.cmd.Process.Kill() })
	go func() {
		defer close(p.lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
	}()
	return p
}

// await reads stderr up to the first line re matches and returns its
// submatches.
func (p *liveCLI) await(re *regexp.Regexp) []string {
	p.t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				p.t.Fatalf("stderr ended before a line matching %q:\n%s", re, p.tail())
			}
			p.log = append(p.log, line)
			if m := re.FindStringSubmatch(line); m != nil {
				return m
			}
		case <-deadline:
			p.t.Fatalf("no stderr line matching %q within a minute:\n%s", re, p.tail())
		}
	}
}

// interrupt sends SIGINT, reads stderr to its end and returns the exit status
// with everything the command wrote to stderr.
func (p *liveCLI) interrupt() (int, string) {
	p.t.Helper()
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		p.t.Fatal(err)
	}
	for line := range p.lines {
		p.log = append(p.log, line)
	}
	err := p.cmd.Wait()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		p.t.Fatal(err)
	}
	return p.cmd.ProcessState.ExitCode(), p.tail()
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

// TestInterruptKeepsCompleteBatches: SIGINT mid-campaign behaves the same
// wherever the runs execute — exit status 130, the complete batches rendered
// and saved as a version-3 partial corpus, and -resume of that file converging
// byte for byte with a campaign that was never interrupted.
func TestInterruptKeepsCompleteBatches(t *testing.T) {
	bin := buildBin(t)
	for name, mode := range map[string][]string{"local": nil, "distributed": {"-workers", "1"}} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			partial := filepath.Join(dir, "c.json")
			p := startCLI(t, bin, append([]string{"-workload", "MR1", "-strategy", "random", "-runs", "2000000",
				"-batch", "50", "-progress", "-corpus", partial}, mode...)...)
			p.await(progressLine)
			status, log := p.interrupt()
			if status != 130 {
				t.Fatalf("exit status %d, want 130\n%s", status, log)
			}
			m := regexp.MustCompile(`interrupted at (\d+)/2000000 run`).FindStringSubmatch(log)
			if m == nil || !strings.Contains(log, "saved partial corpus (resume with -resume)") {
				t.Fatalf("stderr names neither the interruption point nor the partial corpus:\n%s", log)
			}
			n, _ := strconv.Atoi(m[1])
			if n == 0 || n%50 != 0 {
				t.Fatalf("interrupted at %d runs, want a positive multiple of the 50-run batch", n)
			}
			data, err := os.ReadFile(partial)
			if err != nil {
				t.Fatal(err)
			}
			var saved struct {
				Version int               `json:"version"`
				Entries []json.RawMessage `json:"entries"`
			}
			if err := json.Unmarshal(data, &saved); err != nil {
				t.Fatal(err)
			}
			if saved.Version != 3 || len(saved.Entries) != n {
				t.Fatalf("partial corpus is version %d with %d entries, want version 3 with %d", saved.Version, len(saved.Entries), n)
			}

			resumed, scratch := filepath.Join(dir, "resumed.json"), filepath.Join(dir, "scratch.json")
			budget := strconv.Itoa(n + 50)
			for _, args := range [][]string{
				{"-resume", partial, "-runs", budget, "-corpus", resumed},
				{"-workload", "MR1", "-strategy", "random", "-runs", budget, "-corpus", scratch},
			} {
				if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
					t.Fatalf("%v: %v\n%s", args, err, out)
				}
			}
			got, err := os.ReadFile(resumed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(scratch)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("corpus resumed from the %d-run partial one differs from a from-scratch %s-run corpus", n, budget)
			}
		})
	}
}

// TestMetricsServedForAnyCampaign: -metrics-addr serves parseable Prometheus
// text while the campaign runs, whether its runs execute in this process or on
// workers; a distributed run adds the coordinator's series.
func TestMetricsServedForAnyCampaign(t *testing.T) {
	bin := buildBin(t)
	engine := "fcatch_campaign_random_executed_total "
	for name, c := range map[string]struct{ mode, want []string }{
		"local":       {nil, []string{engine}},
		"distributed": {[]string{"-workers", "2"}, []string{engine, "fcatch_dist_workers_joined_total 2\n"}},
	} {
		t.Run(name, func(t *testing.T) {
			p := startCLI(t, bin, append([]string{"-workload", "MR1", "-strategy", "random", "-runs", "2000000",
				"-batch", "50", "-progress", "-metrics-addr", "127.0.0.1:0"}, c.mode...)...)
			url := p.await(regexp.MustCompile(`serving metrics on (http://\S+/metrics)`))[1]
			p.await(progressLine) // a batch is committed and two million runs remain
			// The second worker may join after the first batch: scrape until
			// every wanted series is there.
			var body string
			for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(50 * time.Millisecond) {
				var err error
				if body, err = scrape(url); err != nil {
					t.Fatalf("scraping %s mid-run: %v", url, err)
				}
				missing := ""
				for _, want := range c.want {
					if !strings.Contains(body, "\n"+want) {
						missing = want
					}
				}
				if missing == "" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("mid-run scrape never showed %q:\n%s", missing, body)
				}
			}
			// Every sample line is Prometheus text: name[{le="..."}] value.
			for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
				if line == "" || strings.HasPrefix(line, "# ") {
					continue
				}
				fields := strings.Fields(line)
				if len(fields) != 2 {
					t.Fatalf("unparseable sample line %q", line)
				}
				if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
					t.Fatalf("sample line %q: %v", line, err)
				}
			}
			if status, log := p.interrupt(); status != 130 {
				t.Fatalf("exit status %d, want 130\n%s", status, log)
			}
		})
	}
}

func scrape(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// TestRetiredFlagsRefused: -space-trace and -compare no longer exist, so flag
// parsing refuses them with the usage text and exit status 2.
func TestRetiredFlagsRefused(t *testing.T) {
	run := buildCLI(t)
	for _, args := range [][]string{{"-workload", "TOY", "-runs", "4", "-space-trace", "x"}, {"-compare"}} {
		out, err := run(args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(out, "flag provided but not defined") {
			t.Errorf("%v: err = %v, want exit status 2 from flag parsing\n%s", args, err, out)
		}
	}
}
