package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fcatch/internal/apps/toy"
	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/obs"
)

// testOptions returns coordinator options tuned for fast failure handling in
// tests: short liveness windows and near-zero retry backoff.
func testOptions() Options {
	return Options{
		LeaseTimeout: 500 * time.Millisecond,
		RetryBackoff: time.Millisecond,
	}
}

// fromLease is a WorkerConfig.misbehave that serves the leases before the
// nth and fails the nth in the given way.
func fromLease(n int, fault leaseFault) func(int) leaseFault {
	return func(lease int) leaseFault {
		if lease >= n {
			return fault
		}
		return faultNone
	}
}

func corpusJSON(t *testing.T, c *campaign.Corpus) string {
	t.Helper()
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// baseline runs the single-process Parallelism=1 campaign every distributed
// variant must reproduce byte for byte.
func baseline(t *testing.T, cfg campaign.Config) string {
	t.Helper()
	cfg.Parallelism = 1
	res, err := campaign.Run(context.Background(), toy.New(), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return corpusJSON(t, res.Corpus)
}

// wireFrames is one frame of every message type.
func wireFrames() []message {
	return []message{
		{Type: msgHello, Proto: ProtoVersion, Worker: "w1"},
		{Type: msgConfig, Workload: "TOY", Seed: 7, Traced: true, HeartbeatMS: 250},
		{Type: msgLease, Lease: 42, Plans: []campaign.Plan{
			{{CrashStep: 9}},
			{{Site: "a.go:10", Occurrence: 2, When: "after", Action: "kernel-drop"}, {Delay: 48, Action: "node-crash"}},
		}},
		{Type: msgResult, Lease: 42, Results: []campaign.RunResult{
			{Plan: campaign.Plan{{CrashStep: 9}},
				Sig:     campaign.Signature{Outcome: "hang", Symptom: "hang:x", Coverage: 0xdeadbeefcafe0123},
				Verdict: campaign.VerdictFailure},
		}},
		{Type: msgHeartbeat},
		{Type: msgDrain},
		{Type: msgError, Err: "boom"},
	}
}

// TestFrameRoundTrip pins the wire encoding: every message type survives a
// write/read cycle.
func TestFrameRoundTrip(t *testing.T) {
	msgs := wireFrames()
	var buf bytes.Buffer
	for i := range msgs {
		if err := writeMessage(&buf, &msgs[i]); err != nil {
			t.Fatalf("write %s: %v", msgs[i].Type, err)
		}
	}
	br := bufio.NewReader(&buf)
	for i := range msgs {
		var got message
		if err := readMessage(br, &got); err != nil {
			t.Fatalf("read %s: %v", msgs[i].Type, err)
		}
		want, _ := json.Marshal(msgs[i])
		gotJSON, _ := json.Marshal(got)
		if string(want) != string(gotJSON) {
			t.Fatalf("frame %d: got %s, want %s", i, gotJSON, want)
		}
	}
}

// TestFrameSizeBound: a corrupt length prefix must be rejected before any
// allocation, and an oversized outgoing frame must refuse to encode.
func TestFrameSizeBound(t *testing.T) {
	hostile := []byte{0xff, 0xff, 0xff, 0xff, 'x'}
	var m message
	if err := readMessage(bufio.NewReader(bytes.NewReader(hostile)), &m); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("hostile frame err = %v", err)
	}
	big := message{Type: msgError, Err: strings.Repeat("x", maxFrame)}
	if err := writeMessage(&bytes.Buffer{}, &big); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized write err = %v", err)
	}
}

// TestDistributedCorpusParity is the subsystem's core contract: the corpus
// of a distributed campaign is byte-identical to the single-process
// sequential run at every worker count and lease size, for the traced
// (coverage-guided) and untraced (random) strategies alike.
func TestDistributedCorpusParity(t *testing.T) {
	for _, strat := range []string{campaign.StrategyCoverage, campaign.StrategyRandom} {
		cfg := campaign.Config{Strategy: strat, Seed: 5, Budget: 30}
		want := baseline(t, cfg)
		for _, workers := range []int{1, 2, 4} {
			for _, leaseSize := range []int{1, 3, 100} {
				opts := testOptions()
				opts.Workers = workers
				opts.WorkerParallelism = 1
				opts.LeaseSize = leaseSize
				res, err := Serve(context.Background(), toy.New(), cfg, nil, opts)
				if err != nil {
					t.Fatalf("%s workers=%d lease=%d: %v", strat, workers, leaseSize, err)
				}
				if got := corpusJSON(t, res.Corpus); got != want {
					t.Errorf("%s workers=%d lease=%d: corpus differs from sequential baseline",
						strat, workers, leaseSize)
				}
			}
		}
	}
}

// TestWorkerCrashMidLease: one of the workers abandons its lease between
// grant and result (connection drop), the coordinator requeues it onto the
// survivors, and the corpus still matches the baseline exactly.
func TestWorkerCrashMidLease(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: 5, Budget: 40}
	want := baseline(t, cfg)

	opts := testOptions()
	opts.Workers = 3 // survivors
	opts.WorkerParallelism = 1
	opts.LeaseSize = 2
	var addr string
	addrCh := make(chan string, 1)
	opts.OnListen = func(a string) { addrCh <- a }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	crasherDone := make(chan error, 1)
	go func() {
		addr = <-addrCh
		crasherDone <- RunWorker(ctx, WorkerConfig{
			Addr: addr, Name: "crasher", Parallelism: 1,
			Resolve:   func(string) (core.Workload, error) { return toy.New(), nil },
			misbehave: fromLease(2, faultCrash),
		})
	}()

	res, err := Serve(ctx, toy.New(), cfg, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusJSON(t, res.Corpus); got != want {
		t.Error("corpus after a mid-lease worker crash differs from baseline")
	}
	if err := <-crasherDone; err != nil {
		t.Fatalf("crasher worker: %v", err)
	}
}

// TestWorkerSilentHang: a worker freezes completely (no heartbeats, socket
// open). The coordinator's liveness deadline declares it lost, the lease is
// reassigned, and parity holds.
func TestWorkerSilentHang(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: 3, Budget: 25}
	want := baseline(t, cfg)

	opts := testOptions()
	opts.LeaseTimeout = 250 * time.Millisecond // cut the wait for the dead claim
	opts.Workers = 2
	opts.WorkerParallelism = 1
	opts.LeaseSize = 2
	addrCh := make(chan string, 1)
	opts.OnListen = func(a string) { addrCh <- a }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hungDone := make(chan error, 1)
	go func() {
		hungDone <- RunWorker(ctx, WorkerConfig{
			Addr: <-addrCh, Name: "frozen", Parallelism: 1,
			Resolve:   func(string) (core.Workload, error) { return toy.New(), nil },
			misbehave: fromLease(1, faultFreeze),
		})
	}()

	res, err := Serve(ctx, toy.New(), cfg, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusJSON(t, res.Corpus); got != want {
		t.Error("corpus after a silent worker hang differs from baseline")
	}
	cancel() // release the frozen worker
	if err := <-hungDone; err != nil {
		t.Fatalf("frozen worker: %v", err)
	}
}

// TestLeaseExpiryReassignsLivelockedWorker: the worker stays alive (it keeps
// heartbeating) but never finishes its lease; only the hard lease expiry can
// reclaim it. The reassigned lease reproduces the baseline corpus.
func TestLeaseExpiryReassignsLivelockedWorker(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: 3, Budget: 25}
	want := baseline(t, cfg)

	opts := testOptions()
	opts.LeaseExpiry = 200 * time.Millisecond
	opts.Workers = 2
	opts.WorkerParallelism = 1
	opts.LeaseSize = 2
	addrCh := make(chan string, 1)
	opts.OnListen = func(a string) { addrCh <- a }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lockedDone := make(chan error, 1)
	go func() {
		lockedDone <- RunWorker(ctx, WorkerConfig{
			Addr: <-addrCh, Name: "livelocked", Parallelism: 1,
			Resolve:   func(string) (core.Workload, error) { return toy.New(), nil },
			misbehave: fromLease(1, faultLivelock),
		})
	}()

	res, err := Serve(ctx, toy.New(), cfg, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusJSON(t, res.Corpus); got != want {
		t.Error("corpus after a livelocked worker differs from baseline")
	}
	cancel()
	if err := <-lockedDone; err != nil {
		t.Fatalf("livelocked worker: %v", err)
	}
}

// TestLateJoiningWorkerKeepsParity: a second worker joining mid-campaign
// must only change who runs which lease, never what the corpus contains.
func TestLateJoiningWorkerKeepsParity(t *testing.T) {
	// Random strategy with a large budget keeps the campaign in flight long
	// enough for the latecomer's join to land mid-run.
	cfg := campaign.Config{Strategy: campaign.StrategyRandom, Seed: 11, Budget: 1500, BatchSize: 25}
	want := baseline(t, cfg)

	opts := testOptions()
	opts.Workers = 1
	opts.WorkerParallelism = 1
	opts.LeaseSize = 1
	addrCh := make(chan string, 1)
	opts.OnListen = func(a string) { addrCh <- a }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lateDone := make(chan error, 1)
	go func() {
		addr := <-addrCh
		time.Sleep(15 * time.Millisecond) // join after the campaign is underway
		lateDone <- RunWorker(ctx, WorkerConfig{
			Addr: addr, Name: "latecomer", Parallelism: 1,
			Resolve: func(string) (core.Workload, error) { return toy.New(), nil },
		})
	}()

	res, err := Serve(ctx, toy.New(), cfg, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusJSON(t, res.Corpus); got != want {
		t.Error("corpus with a late-joining worker differs from baseline")
	}
	// If the run still beat the latecomer to the finish line the join is
	// vacuous, not wrong: a refused dial after drain is benign.
	if err := <-lateDone; err != nil && !strings.Contains(err.Error(), "cannot reach coordinator") {
		t.Fatalf("late worker: %v", err)
	}
}

// TestResumeAfterMidBatchInterruption is the end-to-end recovery story: a
// distributed run loses a worker mid-lease AND is cancelled mid-campaign;
// the saved partial corpus, resumed distributed, must converge to exactly
// the corpus of an uninterrupted single-process run.
func TestResumeAfterMidBatchInterruption(t *testing.T) {
	// Random strategy: the step-plan space never exhausts, so the campaign
	// is still mid-flight when the cancel lands.
	cfg := campaign.Config{Strategy: campaign.StrategyRandom, Seed: 9, Budget: 3000, BatchSize: 50}
	want := baseline(t, cfg)

	opts := testOptions()
	opts.Workers = 2
	opts.WorkerParallelism = 1
	opts.LeaseSize = 5
	addrCh := make(chan string, 1)
	opts.OnListen = func(a string) { addrCh <- a }

	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	crasherDone := make(chan error, 1)
	go func() {
		crasherDone <- RunWorker(runCtx, WorkerConfig{
			Addr: <-addrCh, Name: "crasher", Parallelism: 1,
			Resolve:   func(string) (core.Workload, error) { return toy.New(), nil },
			misbehave: fromLease(3, faultCrash),
		})
	}()
	go func() {
		time.Sleep(120 * time.Millisecond)
		cancelRun() // interrupt the campaign mid-batch
	}()

	partial, err := Serve(runCtx, toy.New(), cfg, nil, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	<-crasherDone
	if partial.Runs == 0 || partial.Runs >= cfg.Budget {
		t.Fatalf("interruption landed outside the campaign: %d/%d runs", partial.Runs, cfg.Budget)
	}
	if partial.Runs%cfg.BatchSize != 0 {
		t.Fatalf("partial corpus has %d runs; batches must commit atomically (batch size %d)",
			partial.Runs, cfg.BatchSize)
	}

	// Persist and reload through the real corpus path, then resume
	// distributed with fresh workers.
	path := filepath.Join(t.TempDir(), "partial.json")
	if err := partial.Corpus.Save(path); err != nil {
		t.Fatal(err)
	}
	prior, err := campaign.LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	opts2 := testOptions()
	opts2.Workers = 2
	opts2.WorkerParallelism = 1
	opts2.LeaseSize = 5
	resumed, err := Serve(context.Background(), toy.New(), cfg, prior, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusJSON(t, resumed.Corpus); got != want {
		t.Error("resumed distributed corpus differs from the uninterrupted baseline")
	}
}

// TestProtoVersionMismatchRejected: a worker speaking the wrong protocol
// generation — here the retired one, whose plans were objects, not event
// lists — is told so and turned away. The coordinator starts with no
// workers of its own, so the listener stays open until the rogue worker has
// read its rejection; only then does a real worker attach and let the
// campaign finish.
func TestProtoVersionMismatchRejected(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: 1, Budget: 4}
	opts := testOptions()
	addrCh := make(chan string, 1)
	opts.OnListen = func(a string) { addrCh <- a }

	rogue := func(addr string) error {
		conn, err := (&net.Dialer{}).Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := writeMessage(conn, &message{Type: msgHello, Proto: ProtoVersion - 1, Worker: "retired"}); err != nil {
			return err
		}
		var reply message
		if err := readMessage(bufio.NewReader(conn), &reply); err != nil {
			return err
		}
		if reply.Type != msgError || !strings.Contains(reply.Err, "protocol") {
			return fmt.Errorf("got %q frame (%s), want protocol error", reply.Type, reply.Err)
		}
		return nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rejected := make(chan error, 1)
	workerDone := make(chan error, 1)
	go func() {
		addr := <-addrCh
		err := rogue(addr)
		rejected <- err
		if err != nil {
			cancel() // nobody will finish the campaign; unblock Serve
			return
		}
		workerDone <- RunWorker(ctx, WorkerConfig{
			Addr: addr, Name: "current", Parallelism: 1,
			Resolve: func(string) (core.Workload, error) { return toy.New(), nil },
		})
	}()

	_, serveErr := Serve(ctx, toy.New(), cfg, nil, opts)
	if err := <-rejected; err != nil {
		t.Fatalf("mismatched worker: %v", err)
	}
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// TestRogueResultFrameRequeued: result frames are a trust boundary too — the
// plan a result echoes is what the corpus records as having run. Workers that
// answer a lease in the wrong order, with a blanked plan, or with a verdict
// the engine never assigns each forfeit the lease and their connection; a
// real worker then finishes the campaign, and the corpus is the local one.
func TestRogueResultFrameRequeued(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: 1, Budget: 12}
	want := baseline(t, cfg)
	reg := obs.New()
	opts := testOptions()
	opts.LeaseSize = 4
	opts.MaxLeaseRetries = 5 // every rogue may be handed the same lease
	opts.Metrics = reg
	addrCh := make(chan string, 1)
	opts.OnListen = func(a string) { addrCh <- a }

	// rogue answers its first lease with tolerated results for the leased
	// plans, spoiled by tamper, and returns once the coordinator hangs up.
	rogue := func(addr string, tamper func(rs []campaign.RunResult)) error {
		conn, err := (&net.Dialer{}).Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := writeMessage(conn, &message{Type: msgHello, Proto: ProtoVersion, Worker: "rogue"}); err != nil {
			return err
		}
		br := bufio.NewReader(conn)
		var m message
		for m.Type != msgLease {
			if err := readMessage(br, &m); err != nil {
				return err
			}
		}
		if len(m.Plans) < 2 {
			return fmt.Errorf("lease of %d plan(s): nothing to swap", len(m.Plans))
		}
		rs := make([]campaign.RunResult, len(m.Plans))
		for i, p := range m.Plans {
			rs[i] = campaign.RunResult{Plan: p, Verdict: campaign.VerdictTolerated}
		}
		tamper(rs)
		if err := writeMessage(conn, &message{Type: msgResult, Lease: m.Lease, Results: rs}); err != nil {
			return err
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if err := readMessage(br, &m); err == nil {
			return fmt.Errorf("coordinator kept talking (%q frame) after a rogue result", m.Type)
		}
		return nil
	}
	tampers := []func(rs []campaign.RunResult){
		func(rs []campaign.RunResult) { rs[0], rs[1] = rs[1], rs[0] },
		func(rs []campaign.RunResult) { rs[0].Plan = nil },
		func(rs []campaign.RunResult) { rs[1].Verdict = "" },
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rogues := make(chan error, 1)
	workerDone := make(chan error, 1)
	go func() {
		addr := <-addrCh
		for i, tamper := range tampers {
			if err := rogue(addr, tamper); err != nil {
				rogues <- fmt.Errorf("rogue %d: %w", i, err)
				cancel() // nobody will finish the campaign; unblock Serve
				return
			}
		}
		rogues <- nil
		workerDone <- RunWorker(ctx, WorkerConfig{
			Addr: addr, Name: "honest", Parallelism: 1,
			Resolve: func(string) (core.Workload, error) { return toy.New(), nil },
		})
	}()

	res, serveErr := Serve(ctx, toy.New(), cfg, nil, opts)
	if err := <-rogues; err != nil {
		t.Fatal(err)
	}
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if got := corpusJSON(t, res.Corpus); got != want {
		t.Error("corpus after rogue result frames differs from the local one")
	}
	if n := reg.Snapshot().Counters["dist/leases/requeued"]; n < int64(len(tampers)) {
		t.Errorf("%d lease(s) requeued, want one per rogue (%d)", n, len(tampers))
	}
}

// TestWorkerRefusesMalformedLease: lease frames are a trust boundary. A plan
// that is empty (JSON null — it would replay as a fault-free run) or names an
// unknown action (it would lower to a node crash) makes the worker report the
// lease and plan and quit, without running anything.
func TestWorkerRefusesMalformedLease(t *testing.T) {
	for _, c := range []struct {
		name string
		plan campaign.Plan
		want string
	}{
		{"null plan", nil, "lease 7 plan 1: sim: empty scenario"},
		{"unknown action", campaign.Plan{{Site: "a.go:1", Action: "meteor"}}, `lease 7 plan 1: sim: scenario action "meteor"`},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		reported := make(chan string, 1)
		go func() {
			defer ln.Close()
			conn, err := ln.Accept()
			if err != nil {
				reported <- err.Error()
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			var m message
			if err := readMessage(br, &m); err != nil || m.Type != msgHello {
				reported <- fmt.Sprintf("hello: %v %q", err, m.Type)
				return
			}
			_ = writeMessage(conn, &message{Type: msgConfig, Workload: "TOY", Seed: 1, HeartbeatMS: 1000})
			_ = writeMessage(conn, &message{Type: msgLease, Lease: 7, Plans: []campaign.Plan{{{CrashStep: 9}}, c.plan}})
			for {
				if err := readMessage(br, &m); err != nil {
					reported <- "no error frame: " + err.Error()
					return
				}
				if m.Type != msgHeartbeat {
					reported <- m.Type + ": " + m.Err
					return
				}
			}
		}()
		err = RunWorker(context.Background(), WorkerConfig{
			Addr: ln.Addr().String(), Name: "w", Parallelism: 1,
			Resolve: func(string) (core.Workload, error) { return toy.New(), nil },
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: RunWorker = %v, want an error containing %q", c.name, err, c.want)
		}
		if got := <-reported; !strings.Contains(got, msgError+": ") || !strings.Contains(got, c.want) {
			t.Errorf("%s: coordinator saw %q, want an error frame containing %q", c.name, got, c.want)
		}
	}
}

// TestAllWorkersLostAborts: when every worker is gone and a lease exhausts
// its retries, the campaign aborts with a descriptive error instead of
// hanging forever.
func TestAllWorkersLostAborts(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: 2, Budget: 20}
	opts := testOptions()
	opts.LeaseTimeout = 200 * time.Millisecond
	opts.MaxLeaseRetries = 2
	// One lease per batch, so every doomed worker fails the SAME lease and
	// the bounded retry count is what trips. (With many leases, each failure
	// landing on a fresh lease would correctly keep the campaign waiting for
	// new workers instead of aborting.)
	opts.LeaseSize = cfg.Budget
	addrCh := make(chan string, 1)
	opts.OnListen = func(a string) { addrCh <- a }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Every worker that connects dies on its first lease.
		addr := <-addrCh
		for i := 0; i < opts.MaxLeaseRetries+2; i++ {
			_ = RunWorker(ctx, WorkerConfig{
				Addr: addr, Name: "doomed", Parallelism: 1,
				Resolve:   func(string) (core.Workload, error) { return toy.New(), nil },
				misbehave: fromLease(1, faultCrash),
			})
			if ctx.Err() != nil {
				return
			}
		}
	}()

	_, err := Serve(ctx, toy.New(), cfg, nil, opts)
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("err = %v, want a bounded-retry abort", err)
	}
}

// TestMetricsKeepCorpusParity: a registry attached to a 2-worker distributed
// run leaves the corpus byte-identical to the baseline, and its telemetry
// counters reflect the fleet. (The /metrics endpoint is the CLI's:
// cmd/fcatch-campaign TestMetricsServedForAnyCampaign scrapes it mid-run.)
func TestMetricsKeepCorpusParity(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: 5, Budget: 40}
	want := baseline(t, cfg)

	reg := obs.New()
	opts := testOptions()
	opts.Workers = 2
	opts.WorkerParallelism = 1
	opts.Metrics = reg

	res, err := Serve(context.Background(), toy.New(), cfg, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusJSON(t, res.Corpus); got != want {
		t.Error("corpus with metrics attached differs from baseline")
	}
	snap := reg.Snapshot()
	if snap.Counters["dist/workers/joined"] != 2 {
		t.Errorf("dist/workers/joined = %d, want 2", snap.Counters["dist/workers/joined"])
	}
	if snap.Counters["dist/leases/granted"] == 0 {
		t.Error("no leases granted recorded")
	}
	if snap.Histograms["dist/lease-latency-ns"].Count == 0 {
		t.Error("no lease latency observations recorded")
	}
}

// TestRequeueCounterOnWorkerCrash: a worker crash mid-lease is visible in the
// coordinator's requeue and worker-loss counters.
func TestRequeueCounterOnWorkerCrash(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: 5, Budget: 40}
	reg := obs.New()
	opts := testOptions()
	opts.Workers = 2
	opts.WorkerParallelism = 1
	opts.LeaseSize = 2
	opts.Metrics = reg
	addrCh := make(chan string, 1)
	opts.OnListen = func(a string) { addrCh <- a }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	crasherDone := make(chan error, 1)
	go func() {
		addr := <-addrCh
		crasherDone <- RunWorker(ctx, WorkerConfig{
			Addr: addr, Name: "crasher", Parallelism: 1,
			Resolve:   func(string) (core.Workload, error) { return toy.New(), nil },
			misbehave: fromLease(1, faultCrash),
		})
	}()

	if _, err := Serve(ctx, toy.New(), cfg, nil, opts); err != nil {
		t.Fatal(err)
	}
	if err := <-crasherDone; err != nil {
		t.Fatalf("crasher worker: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["dist/leases/requeued"] == 0 {
		t.Error("crashed worker's lease was not counted as requeued")
	}
	if snap.Counters["dist/workers/lost"] == 0 {
		t.Error("crashed worker was not counted as lost")
	}
}
