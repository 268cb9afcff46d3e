package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fcatch/internal/apps/toy"
	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/obs"
	"fcatch/internal/sim"
)

// TestMain shortens the lease timeout, so a test that loses a worker waits a
// quarter second for it, not fifteen.
func TestMain(m *testing.M) {
	leaseTimeout = 250 * time.Millisecond
	os.Exit(m.Run())
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

func resolveToy(string) (core.Workload, error) { return toy.New(), nil }

// stageTimeout bounds every wait for a staged event, so a worker that never
// joins or never misbehaves fails its test instead of hanging it.
const stageTimeout = 30 * time.Second

// staged drives a distributed campaign by events, not sleeps: Serve starts
// with no workers of its own and the test adds them as events happen — a
// staged worker misbehaves first and honest workers join only after it has,
// so the campaign cannot finish before the misbehaviour it is meant to
// survive. Each committed batch waits until every worker the test started
// has joined, so none dials a listener the finished campaign has closed.
type staged struct {
	t      *testing.T
	ctx    context.Context
	cancel context.CancelFunc
	addr   string
	served chan servedResult
	exits  chan error // honest workers' RunWorker results (no test joins more than 8)
	honest int

	mu      sync.Mutex
	started []string        // workers the test started, staged and honest
	joined  map[string]bool // workers the coordinator accepted
}

type servedResult struct {
	res *campaign.Result
	err error
}

// serveStaged starts Serve on its own goroutine and returns once it listens.
// The test's cleanup cancels the campaign and waits for Serve to return.
func serveStaged(t *testing.T, ctx context.Context, cfg campaign.Config, prior *campaign.Corpus, opts Options) *staged {
	t.Helper()
	s := &staged{t: t, served: make(chan servedResult, 1), exits: make(chan error, 8), joined: map[string]bool{}}
	s.ctx, s.cancel = context.WithCancel(ctx)
	opts.Workers = 0
	addrCh := make(chan string, 1)
	opts.OnListen = func(a string) { addrCh <- a }
	opts.Logf = func(format string, args ...any) {
		if strings.HasSuffix(format, " joined from %s") {
			s.mu.Lock()
			s.joined[args[0].(string)] = true
			s.mu.Unlock()
		}
	}
	next := cfg.Progress
	cfg.Progress = func(p campaign.Progress) {
		if next != nil {
			next(p)
		}
		s.awaitJoined()
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		res, err := Serve(s.ctx, toy.New(), cfg, prior, opts)
		s.served <- servedResult{res, err}
	}()
	t.Cleanup(func() { s.cancel(); <-serveDone })
	select {
	case s.addr = <-addrCh:
	case r := <-s.served:
		t.Fatalf("Serve returned before listening: %v", r.err)
	}
	return s
}

// start records a worker the campaign must wait for.
func (s *staged) start(name string) {
	s.mu.Lock()
	s.started = append(s.started, name)
	s.mu.Unlock()
}

// awaitJoined holds the campaign until every worker the test started has
// joined. It returns early once the campaign's context ends; after
// stageTimeout it fails the test naming the missing workers and cancels the
// campaign.
func (s *staged) awaitJoined() {
	deadline := time.Now().Add(stageTimeout)
	for s.ctx.Err() == nil {
		s.mu.Lock()
		var missing []string
		for _, name := range s.started {
			if !s.joined[name] {
				missing = append(missing, name)
			}
		}
		s.mu.Unlock()
		if len(missing) == 0 {
			return
		}
		if time.Now().After(deadline) {
			s.t.Errorf("worker(s) %s never joined within %v", strings.Join(missing, ", "), stageTimeout)
			s.cancel()
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// misbehave starts a worker that fails its nth lease with fault, and returns
// once the fault has fired, with a channel for the worker's RunWorker result.
func (s *staged) misbehave(name string, n int, fault leaseFault) <-chan error {
	s.t.Helper()
	fired := make(chan struct{})
	var once sync.Once
	return s.startFaulty(name, fmt.Sprintf("fail lease %d", n), fired, WorkerConfig{
		Resolve: resolveToy,
		misbehave: func(lease int) leaseFault {
			f := fromLease(n, fault)(lease)
			if f != faultNone {
				once.Do(func() { close(fired) })
			}
			return f
		},
	})
}

// stallingToy is the toy workload with its cluster setup blocked until
// release closes: a worker running it is alive, connected and reading, and
// finishes no plan.
type stallingToy struct {
	core.Workload
	stalled chan struct{} // closed when the first plan stalls
	once    sync.Once
	release <-chan struct{}
}

func (w *stallingToy) Configure(c *sim.Cluster) {
	w.once.Do(func() { close(w.stalled) })
	<-w.release
	w.Workload.Configure(c)
}

// livelock starts a worker whose first plan stalls until the campaign's
// context ends, and returns once it has stalled.
func (s *staged) livelock(name string) <-chan error {
	s.t.Helper()
	w := &stallingToy{Workload: toy.New(), stalled: make(chan struct{}), release: s.ctx.Done()}
	return s.startFaulty(name, "stall a plan", w.stalled, WorkerConfig{
		Resolve: func(string) (core.Workload, error) { return w, nil },
	})
}

// startFaulty starts a worker the campaign must wait for and returns once
// fired closes, with a channel for the worker's RunWorker result; the worker
// returning first, the campaign ending first or stageTimeout fails the test.
func (s *staged) startFaulty(name, what string, fired <-chan struct{}, cfg WorkerConfig) <-chan error {
	s.t.Helper()
	cfg.Addr, cfg.Name, cfg.Parallelism = s.addr, name, 1
	done := make(chan error, 1)
	s.start(name)
	go func() { done <- RunWorker(s.ctx, cfg) }()
	select {
	case <-fired:
	case err := <-done:
		select {
		case <-fired: // the fault was to return
			done <- err
		default:
			s.t.Fatalf("%s worker returned (%v) before it could %s", name, err, what)
		}
	case r := <-s.served:
		s.t.Fatalf("campaign ended (%v) before the %s worker could %s", r.err, name, what)
	case <-time.After(stageTimeout):
		s.t.Fatalf("%s worker did not %s within %v", name, what, stageTimeout)
	}
	return done
}

// join starts k honest workers.
func (s *staged) join(k int) {
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("honest-%d", s.honest)
		s.honest++
		s.start(name)
		go func() {
			s.exits <- RunWorker(s.ctx, WorkerConfig{Addr: s.addr, Name: name, Parallelism: 1, Resolve: resolveToy})
		}()
	}
}

// wait returns Serve's result once Serve and every honest worker have
// returned; an honest worker's error, or a campaign still running after
// stageTimeout, fails the test.
func (s *staged) wait() (*campaign.Result, error) {
	s.t.Helper()
	var r servedResult
	select {
	case r = <-s.served:
	case <-time.After(stageTimeout):
		s.t.Fatalf("campaign did not finish within %v", stageTimeout)
	}
	for i := 0; i < s.honest; i++ {
		if err := <-s.exits; err != nil {
			s.t.Errorf("honest worker: %v", err)
		}
	}
	return r.res, r.err
}

// wireFrames is one frame of every message type.
func wireFrames() []message {
	return []message{
		{Type: msgHello, Proto: ProtoVersion, Worker: "w1"},
		{Type: msgConfig, Workload: "TOY", Seed: 7, Traced: true, ProgressMS: 250},
		{Type: msgLease, Lease: 42, Plans: []campaign.Plan{
			{{CrashStep: 9}},
			{{Site: "a.go:10", Occurrence: 2, When: "after", Action: "kernel-drop"}, {Delay: 48, Action: "node-crash"}},
		}},
		{Type: msgResult, Lease: 42, Results: []campaign.RunResult{
			{Plan: campaign.Plan{{CrashStep: 9}},
				Sig:     campaign.Signature{Outcome: "hang", Symptom: "hang:x", Coverage: 0xdeadbeefcafe0123},
				Verdict: campaign.VerdictFailure},
		}},
		{Type: msgProgress},
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

// TestExecuteBatchOwnsLeases drives ExecuteBatch as its connection handlers
// would, through c.queue and c.reports with no sockets: results merge in
// lease order whatever order they are reported in, a forfeited lease is
// offered again, stale and duplicate reports are dropped and counted, the
// (maxLeaseRetries+1)-th failure of one lease aborts the batch naming it,
// and a cancelled context ends the batch.
func TestExecuteBatchOwnsLeases(t *testing.T) {
	reg := obs.New()
	c := &coordinator{
		opts:    Options{LeaseSize: 2, Metrics: reg}.withDefaults(),
		queue:   make(chan *lease),
		reports: make(chan report),
		drain:   make(chan struct{}),
	}
	plans := make([]campaign.Plan, 5)
	for i := range plans {
		plans[i] = campaign.Plan{{CrashStep: int64(i + 1)}}
	}
	type batchResult struct {
		out []campaign.RunResult
		err error
	}
	execute := func(ctx context.Context, plans []campaign.Plan) <-chan batchResult {
		done := make(chan batchResult, 1)
		go func() {
			out, err := c.ExecuteBatch(ctx, plans)
			done <- batchResult{out, err}
		}()
		return done
	}
	grant := func() *lease {
		t.Helper()
		select {
		case l := <-c.queue:
			return l
		case <-time.After(stageTimeout):
			t.Fatalf("no lease offered within %v", stageTimeout)
			return nil
		}
	}
	answer := func(l *lease) report {
		rs := make([]campaign.RunResult, len(l.plans))
		for i, p := range l.plans {
			rs[i] = campaign.RunResult{Plan: p, Verdict: campaign.VerdictTolerated}
		}
		return report{l: l, results: rs}
	}

	done := execute(context.Background(), plans)
	leases := []*lease{grant(), grant(), grant()}
	c.reports <- report{l: leases[1], err: errors.New("worker lost")}
	if again := grant(); again != leases[1] {
		t.Fatalf("offered lease %d after lease %d was forfeited", again.id, leases[1].id)
	}
	stale := answer(leases[0])
	stale.l = &lease{batch: leases[0].batch - 1, idx: 0}
	for _, r := range []report{stale, answer(leases[2]), answer(leases[0]), answer(leases[0]), answer(leases[1])} {
		c.reports <- r
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.out) != len(plans) {
		t.Fatalf("%d results for %d plans", len(r.out), len(plans))
	}
	for i := range plans {
		if got, want := r.out[i].Plan.Key(), plans[i].Key(); got != want {
			t.Errorf("result %d is for plan %q, want %q", i, got, want)
		}
	}
	snap := reg.Snapshot()
	if n := snap.Counters["dist/results/duplicates"]; n != 2 {
		t.Errorf("dist/results/duplicates = %d, want the stale report and the second copy", n)
	}
	if n := snap.Counters["dist/leases/requeued"]; n != 1 {
		t.Errorf("dist/leases/requeued = %d, want 1", n)
	}

	done = execute(context.Background(), plans[:1])
	var l *lease
	for i := 1; i <= maxLeaseRetries+1; i++ {
		l = grant()
		c.reports <- report{l: l, err: fmt.Errorf("failure %d", i)}
	}
	r = <-done
	want := fmt.Sprintf("lease %d (1 plan(s)) failed %d times, last cause: failure %d", l.id, maxLeaseRetries+1, maxLeaseRetries+1)
	if r.err == nil || !strings.Contains(r.err.Error(), want) {
		t.Errorf("exhausted lease: err = %v, want %q", r.err, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r := <-execute(ctx, plans); !errors.Is(r.err, context.Canceled) {
		t.Errorf("cancelled batch: err = %v, want context.Canceled", r.err)
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
				var opts Options
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

// TestWorkerCrashMidLease: a worker abandons its second lease between grant
// and result (connection drop), the coordinator requeues it onto the honest
// workers that join afterwards, and the corpus still matches the baseline
// exactly.
func TestWorkerCrashMidLease(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: 5, Budget: 40}
	want := baseline(t, cfg)

	reg := obs.New()
	var opts Options
	opts.LeaseSize = 2
	opts.Metrics = reg

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := serveStaged(t, ctx, cfg, nil, opts)
	crasherDone := s.misbehave("crasher", 2, faultCrash)
	s.join(3)
	res, err := s.wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusJSON(t, res.Corpus); got != want {
		t.Error("corpus after a mid-lease worker crash differs from baseline")
	}
	if err := <-crasherDone; err != nil {
		t.Fatalf("crasher worker: %v", err)
	}
	if n := reg.Snapshot().Counters["dist/leases/requeued"]; n < 1 {
		t.Errorf("%d lease(s) requeued, want the crashed worker's", n)
	}
}

// TestWorkerSilentHang: a worker freezes completely on its lease (no frames,
// socket open). The lease timer declares it lost, the lease is reassigned,
// and parity holds.
func TestWorkerSilentHang(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: 3, Budget: 25}
	want := baseline(t, cfg)

	reg := obs.New()
	var opts Options
	opts.LeaseSize = 2
	opts.Metrics = reg

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := serveStaged(t, ctx, cfg, nil, opts)
	hungDone := s.misbehave("frozen", 1, faultFreeze)
	s.join(2)
	res, err := s.wait()
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
	if n := reg.Snapshot().Counters["dist/leases/requeued"]; n < 1 {
		t.Errorf("%d lease(s) requeued, want the frozen worker's", n)
	}
}

// TestLivelockedWorkerLosesLease: the worker stays connected and reading but
// finishes no plan of its lease, so it sends no frame, and the lease timer
// reclaims the lease with no option set. The reassigned lease reproduces the
// baseline corpus.
func TestLivelockedWorkerLosesLease(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: 3, Budget: 25}
	want := baseline(t, cfg)

	reg := obs.New()
	opts := Options{LeaseSize: 2, Metrics: reg}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := serveStaged(t, ctx, cfg, nil, opts)
	lockedDone := s.livelock("livelocked")
	s.join(2)
	res, err := s.wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusJSON(t, res.Corpus); got != want {
		t.Error("corpus after a livelocked worker differs from baseline")
	}
	cancel() // release the stalled plan
	if err := <-lockedDone; err != nil {
		t.Fatalf("livelocked worker: %v", err)
	}
	snap := reg.Snapshot()
	if n := snap.Counters["dist/leases/requeued"]; n < 1 {
		t.Errorf("%d lease(s) requeued, want the livelocked worker's", n)
	}
	if n := snap.Counters["dist/workers/lost"]; n < 1 {
		t.Errorf("%d worker(s) lost, want the livelocked one", n)
	}

	t.Run("every worker", func(t *testing.T) {
		// One lease per batch, and every worker stalls on the first plan it
		// runs, so each holder of lease 1 loses it in turn until the
		// campaign gives up on it.
		cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: 2, Budget: 20}
		s := serveStaged(t, context.Background(), cfg, nil, Options{LeaseSize: cfg.Budget})
		var done []<-chan error
		for i := 0; i <= maxLeaseRetries; i++ {
			done = append(done, s.livelock(fmt.Sprintf("livelocked-%d", i)))
		}
		_, err := s.wait()
		want := fmt.Sprintf("failed %d times", maxLeaseRetries+1)
		if err == nil || !strings.Contains(err.Error(), "lease 1 (") || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want lease 1 %s", err, want)
		}
		s.cancel()
		for i, d := range done {
			if err := <-d; err != nil {
				t.Errorf("livelocked worker %d: %v", i, err)
			}
		}
	})
}

// TestLateJoiningWorkerKeepsParity: a second worker joining mid-campaign
// must only change who runs which lease, never what the corpus contains. The
// first committed batch holds the campaign until the latecomer has started,
// and serveStaged then holds it until the latecomer has joined.
func TestLateJoiningWorkerKeepsParity(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyRandom, Seed: 11, Budget: 300, BatchSize: 25}
	want := baseline(t, cfg)

	reg := obs.New()
	var opts Options
	opts.LeaseSize = 1
	opts.Metrics = reg

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	underway, latecomer := make(chan struct{}), make(chan struct{})
	var once sync.Once
	withHook := cfg
	withHook.Progress = func(campaign.Progress) {
		once.Do(func() {
			close(underway)
			select {
			case <-latecomer:
			case <-ctx.Done():
			}
		})
	}
	s := serveStaged(t, ctx, withHook, nil, opts)
	s.join(1)
	select {
	case <-underway:
	case r := <-s.served:
		t.Fatalf("campaign ended (%v) before its first batch committed", r.err)
	}
	s.join(1) // the latecomer
	close(latecomer)
	res, err := s.wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusJSON(t, res.Corpus); got != want {
		t.Error("corpus with a late-joining worker differs from baseline")
	}
	if n := reg.Snapshot().Counters["dist/workers/joined"]; n != 2 {
		t.Errorf("dist/workers/joined = %d, want 2", n)
	}
}

// TestResumeAfterMidBatchInterruption is the end-to-end recovery story: a
// distributed run loses a worker mid-lease AND is cancelled mid-campaign
// (after its second committed batch); the saved partial corpus, resumed
// distributed, must converge to exactly the corpus of an uninterrupted
// single-process run.
func TestResumeAfterMidBatchInterruption(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyRandom, Seed: 9, Budget: 400, BatchSize: 50}
	want := baseline(t, cfg)

	var opts Options
	opts.LeaseSize = 5

	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	interrupted := cfg
	interrupted.Progress = func(p campaign.Progress) {
		if p.Batches == 2 {
			cancelRun() // interrupt the campaign between batches
		}
	}
	s := serveStaged(t, runCtx, interrupted, nil, opts)
	crasherDone := s.misbehave("crasher", 3, faultCrash)
	s.join(2)
	partial, err := s.wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if err := <-crasherDone; err != nil {
		t.Fatalf("crasher worker: %v", err)
	}
	if partial.Runs != 2*cfg.BatchSize {
		t.Fatalf("partial corpus has %d runs, want the two committed batches (%d)", partial.Runs, 2*cfg.BatchSize)
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
	var opts2 Options
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
	var opts Options
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
	var opts Options
	opts.LeaseSize = 4
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
			_ = writeMessage(conn, &message{Type: msgConfig, Workload: "TOY", Seed: 1, ProgressMS: 1000})
			_ = writeMessage(conn, &message{Type: msgLease, Lease: 7, Plans: []campaign.Plan{{{CrashStep: 9}}, c.plan}})
			for {
				if err := readMessage(br, &m); err != nil {
					reported <- "no error frame: " + err.Error()
					return
				}
				if m.Type != msgProgress {
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

// TestWorkerCancelledWhileDialingExitsCleanly: cancellation is a clean exit
// even before the worker reaches a coordinator. Nothing listens on the port,
// so the first dial is refused and the deadline lands in the first backoff
// wait (dialBackoff, twice the deadline).
func TestWorkerCancelledWhileDialingExitsCleanly(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = RunWorker(ctx, WorkerConfig{Addr: addr, Name: "w", Resolve: resolveToy})
	if err != nil {
		t.Fatalf("RunWorker cancelled while dialing = %v, want nil", err)
	}
}

// TestWorkerCancelledDuringHandshakeExitsCleanly: a worker cancelled while it
// waits for the coordinator's config frame also exits cleanly.
func TestWorkerCancelledDuringHandshakeExitsCleanly(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hello message
		_ = readMessage(bufio.NewReader(conn), &hello)
		cancel() // the worker now waits for a config frame that never comes
		_, _ = io.Copy(io.Discard, conn)
	}()
	if err := RunWorker(ctx, WorkerConfig{Addr: ln.Addr().String(), Name: "w", Resolve: resolveToy}); err != nil {
		t.Fatalf("RunWorker cancelled during the handshake = %v, want nil", err)
	}
}

// TestAllWorkersLostAborts: when every worker is gone and a lease exhausts
// its retries, the campaign aborts with a descriptive error instead of
// hanging forever.
func TestAllWorkersLostAborts(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: 2, Budget: 20}
	var opts Options
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
		for i := 0; i < maxLeaseRetries+2; i++ {
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
// counters reflect the fleet. The campaign waits for both workers to join.
// (The /metrics endpoint is the CLI's: cmd/fcatch-campaign
// TestMetricsServedForAnyCampaign scrapes it mid-run.)
func TestMetricsKeepCorpusParity(t *testing.T) {
	cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: 5, Budget: 40}
	want := baseline(t, cfg)

	reg := obs.New()
	var opts Options
	opts.Metrics = reg

	s := serveStaged(t, context.Background(), cfg, nil, opts)
	s.join(2)
	res, err := s.wait()
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
	var opts Options
	opts.LeaseSize = 2
	opts.Metrics = reg

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := serveStaged(t, ctx, cfg, nil, opts)
	crasherDone := s.misbehave("crasher", 1, faultCrash)
	s.join(2)
	if _, err := s.wait(); err != nil {
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
