package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/obs"
)

// Options parameterizes a distributed campaign's coordinator.
type Options struct {
	// Addr is the TCP listen address for workers ("" = 127.0.0.1:0, an
	// ephemeral loopback port — the single-machine scale-out default).
	Addr string
	// Workers is how many in-process workers to spawn against the listener
	// (0 = none; the campaign then waits for external fcatch-worker
	// processes). Spawned workers speak the same wire protocol over
	// loopback, so single-machine scale-out exercises the full stack.
	Workers int
	// WorkerParallelism bounds each spawned worker's local fan-out
	// (0 = GOMAXPROCS, 1 = sequential).
	WorkerParallelism int
	// LeaseSize is how many plans one lease carries (0 = 4). Smaller leases
	// pipeline better across workers and lose less work to a crash; larger
	// leases amortize framing. The corpus is byte-identical at any setting.
	LeaseSize int
	// OnListen, when set, receives the bound listen address before the
	// campaign starts (how callers learn the ephemeral port).
	OnListen func(addr string)
	// Logf, when set, receives coordinator progress lines (worker joins,
	// lease reassignments, drain).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives coordinator health telemetry: lease
	// grant/requeue counters, worker join/loss counters, lease latency and
	// progress-gap histograms. Strictly observe-only — the merged corpus is
	// byte-identical with or without it.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.LeaseSize <= 0 {
		o.LeaseSize = 4
	}
	return o
}

// lease is one unit of distributable work: a slice of the current batch's
// plans. A forfeited lease is offered again as the same object.
type lease struct {
	id    uint64
	batch uint64
	idx   int // position in the batch's lease sequence
	plans []campaign.Plan
}

// report is a connection handler's outcome for one granted lease: its
// results, or the error that forfeited it.
type report struct {
	l       *lease
	results []campaign.RunResult
	err     error
}

// coordinator implements campaign.Executor over a fleet of TCP workers.
type coordinator struct {
	opts     Options
	workload string
	seed     int64
	traced   bool

	queue   chan *lease   // unbuffered: a send is a grant to a ready worker
	reports chan report   // every granted lease's outcome, back to ExecuteBatch
	drain   chan struct{} // closed when the campaign is over

	batchSeq atomic.Uint64
	leaseSeq atomic.Uint64
	connWG   sync.WaitGroup
}

func (c *coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// ExecuteBatch partitions one strategy batch into leases, streams them to
// whichever workers are ready, and reassembles the results in lease order —
// the distributed half of the engine's determinism contract. It alone owns
// the leases: it offers them on c.queue, merges or requeues what the
// handlers report, and aborts once one lease has failed more than
// maxLeaseRetries times. Feeding and collecting share one select loop, so
// results merge while later leases are still being handed out.
func (c *coordinator) ExecuteBatch(ctx context.Context, plans []campaign.Plan) ([]campaign.RunResult, error) {
	batch := c.batchSeq.Add(1)
	size := c.opts.LeaseSize
	var pending []*lease // in the order they are offered
	for at := 0; at < len(plans); at += size {
		pending = append(pending, &lease{
			id:    c.leaseSeq.Add(1),
			batch: batch,
			idx:   len(pending),
			plans: plans[at:min(at+size, len(plans))],
		})
	}

	parts := make([][]campaign.RunResult, len(pending))
	fails := make([]int, len(pending))
	for remaining := len(pending); remaining > 0; {
		// Offer the queue a lease only while one is pending; a nil channel
		// parks that select case.
		var feed chan *lease
		var offer *lease
		if len(pending) > 0 {
			feed, offer = c.queue, pending[0]
		}
		select {
		case feed <- offer:
			pending = pending[1:]
		case r := <-c.reports:
			// Anything from an older batch or for an already-merged lease is
			// a deterministic duplicate — drop it.
			if r.l.batch != batch || parts[r.l.idx] != nil {
				c.opts.Metrics.Counter("dist/results/duplicates").Inc()
				continue
			}
			if r.err == nil {
				parts[r.l.idx] = r.results
				remaining--
				continue
			}
			if fails[r.l.idx]++; fails[r.l.idx] > maxLeaseRetries {
				c.opts.Metrics.Counter("dist/leases/exhausted").Inc()
				return nil, fmt.Errorf("dist: lease %d (%d plan(s)) failed %d times, last cause: %w",
					r.l.id, len(r.l.plans), fails[r.l.idx], r.err)
			}
			c.opts.Metrics.Counter("dist/leases/requeued").Inc()
			c.logf("dist: requeueing lease %d (failure %d of %d allowed): %v",
				r.l.id, fails[r.l.idx], maxLeaseRetries, r.err)
			pending = append(pending, r.l)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	out := make([]campaign.RunResult, 0, len(plans))
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// checkResults refuses a result frame that does not answer its lease. What a
// result echoes goes into the corpus as the plan that ran, so the frame must
// hold one result per leased plan, in lease order, each echoing its plan and
// carrying a verdict the engine assigns.
func checkResults(plans []campaign.Plan, results []campaign.RunResult) error {
	if len(results) != len(plans) {
		return fmt.Errorf("returned %d results for %d plans", len(results), len(plans))
	}
	for i := range results {
		if got, want := results[i].Plan.Key(), plans[i].Key(); got != want {
			return fmt.Errorf("returned a result for plan %q where %q was leased", got, want)
		}
		switch results[i].Verdict {
		case campaign.VerdictFailure, campaign.VerdictExpected, campaign.VerdictTolerated:
		default:
			return fmt.Errorf("returned verdict %q for plan %q", results[i].Verdict, plans[i].Key())
		}
	}
	return nil
}

// acceptLoop admits workers until the listener closes.
func (c *coordinator) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c.connWG.Add(1)
		go c.handleConn(conn)
	}
}

// handleConn drives one worker: handshake, then grant-await cycles until the
// campaign drains or the worker is lost. At most one lease is outstanding per
// worker, and every lease it is granted goes back to ExecuteBatch as one
// report, so a worker that fails forfeits exactly one lease.
func (c *coordinator) handleConn(conn net.Conn) {
	defer c.connWG.Done()
	defer conn.Close()

	write := func(m *message) error {
		_ = conn.SetWriteDeadline(time.Now().Add(leaseTimeout))
		return writeMessage(conn, m)
	}
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(leaseTimeout))
	var hello message
	if err := readMessage(br, &hello); err != nil || hello.Type != msgHello {
		return
	}
	if hello.Proto != ProtoVersion {
		_ = write(&message{Type: msgError,
			Err: fmt.Sprintf("protocol version %d, coordinator speaks %d", hello.Proto, ProtoVersion)})
		return
	}
	if err := write(&message{
		Type: msgConfig, Workload: c.workload,
		Seed: c.seed, Traced: c.traced, ProgressMS: (leaseTimeout / 4).Milliseconds(),
	}); err != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Time{}) // an idle worker owes nothing
	c.logf("dist: worker %q joined from %s", hello.Worker, conn.RemoteAddr())
	c.opts.Metrics.Counter("dist/workers/joined").Inc()

	// The reader forwards every frame; the loop below decides what a frame,
	// or its absence, means.
	dead := make(chan struct{})
	frames := make(chan *message)
	go func() {
		defer close(dead)
		for {
			m := new(message)
			if err := readMessage(br, m); err != nil {
				return
			}
			select {
			case frames <- m:
			case <-c.drain:
				return
			}
		}
	}()

	// lose gives up on the worker, handing back the lease it held, if any.
	lose := func(l *lease, cause error) {
		c.logf("dist: worker %q lost: %v", hello.Worker, cause)
		c.opts.Metrics.Counter("dist/workers/lost").Inc()
		if l != nil {
			c.report(report{l: l, err: fmt.Errorf("worker %q: %w", hello.Worker, cause)})
		}
	}
	// Frame gaps within a lease are what the lease timer measures: the
	// histogram's tail shows how close leases come to the timeout.
	gaps := c.opts.Metrics.Histogram("dist/progress-gap-ns")
	for {
		var l *lease
		select {
		case <-c.drain:
			_ = write(&message{Type: msgDrain})
			return
		case <-dead:
			lose(nil, errors.New("disconnected"))
			return
		case m := <-frames:
			lose(nil, fmt.Errorf("sent a %q frame while idle", m.Type))
			return
		case l = <-c.queue:
		}
		if err := write(&message{Type: msgLease, Lease: l.id, Plans: l.plans}); err != nil {
			lose(l, fmt.Errorf("granting lease %d: %w", l.id, err))
			return
		}
		c.opts.Metrics.Counter("dist/leases/granted").Inc()
		granted := time.Now()
		last := granted
		timer := time.NewTimer(leaseTimeout)
		var results []campaign.RunResult
		for results == nil {
			select {
			case m := <-frames:
				now := time.Now()
				gaps.Observe(now.Sub(last).Nanoseconds())
				last = now
				timer.Reset(leaseTimeout)
				if m.Type == msgProgress {
					continue
				}
				err := fmt.Errorf("sent a %q frame for lease %d while holding lease %d", m.Type, m.Lease, l.id)
				if m.Type == msgResult && m.Lease == l.id {
					err = checkResults(l.plans, m.Results)
				}
				if err != nil {
					lose(l, err)
					return
				}
				results = m.Results
			case <-timer.C:
				lose(l, fmt.Errorf("showed no progress on lease %d for %v", l.id, leaseTimeout))
				return
			case <-dead:
				lose(l, fmt.Errorf("disconnected holding lease %d", l.id))
				return
			case <-c.drain:
				_ = write(&message{Type: msgDrain})
				return
			}
		}
		timer.Stop()
		c.opts.Metrics.Histogram("dist/lease-latency-ns").Observe(time.Since(granted).Nanoseconds())
		c.report(report{l: l, results: results})
	}
}

// report hands one lease outcome to ExecuteBatch, or drops it once the
// campaign is over.
func (c *coordinator) report(r report) {
	select {
	case c.reports <- r:
	case <-c.drain:
	}
}

// Serve runs a distributed campaign: listen for workers, execute the
// campaign engine with leases fanned over them, drain, and return the
// result. The produced corpus is byte-identical to the in-process
// campaign.Run with the same (workload, cfg, prior) at any worker count —
// including workers joining late, crashing mid-lease, hanging or livelocking.
//
// On context cancellation Serve returns the partial result of the complete
// batches alongside the context error; saving its corpus and running again
// (here or in-process) with it as prior continues the campaign
// deterministically.
func Serve(ctx context.Context, w core.Workload, cfg campaign.Config, prior *campaign.Corpus, opts Options) (*campaign.Result, error) {
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen %s: %w", opts.Addr, err)
	}
	bound := ln.Addr().String()
	if opts.OnListen != nil {
		opts.OnListen(bound)
	}

	c := &coordinator{
		opts:     opts,
		workload: w.Name(),
		seed:     cfg.Seed,
		traced:   campaign.StrategyTraced(cfg.Strategy),
		queue:    make(chan *lease),
		reports:  make(chan report),
		drain:    make(chan struct{}),
	}
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		c.acceptLoop(ln)
	}()

	// Single-machine scale-out: spawn in-process workers against the real
	// listener. They are ordinary workers in every respect — same handshake,
	// same leases, same failure handling.
	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var workerWG sync.WaitGroup
	resolve := func(name string) (core.Workload, error) {
		if name != w.Name() {
			return nil, fmt.Errorf("dist: coordinator campaign is %q, not %q", w.Name(), name)
		}
		return w, nil
	}
	for i := 0; i < opts.Workers; i++ {
		workerWG.Add(1)
		go func(i int) {
			defer workerWG.Done()
			wcfg := WorkerConfig{
				Addr:        bound,
				Name:        fmt.Sprintf("local-%d", i),
				Parallelism: opts.WorkerParallelism,
				Resolve:     resolve,
			}
			if err := RunWorker(workerCtx, wcfg); err != nil && workerCtx.Err() == nil {
				c.logf("dist: local worker %d: %v", i, err)
			}
		}(i)
	}

	res, err := campaign.Run(ctx, w, cfg, prior, c)

	// Graceful drain: tell every connected worker the campaign is over, stop
	// admitting, and wait for the handlers (and spawned workers) to finish.
	close(c.drain)
	ln.Close()
	<-accepting // no connWG.Add may race the Wait below
	c.connWG.Wait()
	stopWorkers()
	workerWG.Wait()
	if res != nil {
		c.logf("dist: campaign drained (%d run(s) merged)", res.Runs)
	}
	return res, err
}
