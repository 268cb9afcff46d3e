package dist

import (
	"bufio"
	"context"
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
	// LeaseTimeout is the liveness window: a worker that sends no frame
	// (heartbeat or result) for this long is declared lost and its lease is
	// requeued (0 = 15s). The coordinator dictates a heartbeat interval of a
	// quarter of this to workers at handshake.
	LeaseTimeout time.Duration
	// LeaseExpiry, when positive, reassigns a lease that has been
	// outstanding this long even if its worker still heartbeats — the
	// hung-but-alive case. The worker's connection is torn down with the
	// lease. Duplicate completions are deduped first-wins, which is safe
	// because results are deterministic.
	LeaseExpiry time.Duration
	// MaxLeaseRetries bounds how many times one lease may be requeued after
	// worker failures before the campaign aborts (0 = 3).
	MaxLeaseRetries int
	// RetryBackoff is the base delay before a failed lease re-enters the
	// queue; it doubles per failure (0 = 25ms).
	RetryBackoff time.Duration
	// OnListen, when set, receives the bound listen address before the
	// campaign starts (how callers learn the ephemeral port).
	OnListen func(addr string)
	// Logf, when set, receives coordinator progress lines (worker joins,
	// lease reassignments, drain).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives coordinator health telemetry: lease
	// grant/requeue/expiry counters, worker join/loss counters, lease
	// latency and heartbeat-gap histograms. Strictly observe-only — the
	// merged corpus is byte-identical with or without it.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.LeaseSize <= 0 {
		o.LeaseSize = 4
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 15 * time.Second
	}
	if o.MaxLeaseRetries <= 0 {
		o.MaxLeaseRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	return o
}

// lease is one unit of distributable work: a slice of the current batch's
// plans. A lease lives until exactly one result for it is merged (done
// closes); requeues hand the same lease object to another worker.
type lease struct {
	id    uint64
	batch uint64
	idx   int // position in the batch's lease sequence
	plans []campaign.Plan
	fails int
	done  chan struct{}
}

// leaseDone carries one completed lease from a connection handler to the
// collecting ExecuteBatch.
type leaseDone struct {
	l       *lease
	results []campaign.RunResult
}

// coordinator implements campaign.Executor over a fleet of TCP workers.
type coordinator struct {
	opts     Options
	workload string
	seed     int64
	traced   bool

	queue    chan *lease     // unbuffered: a send is a grant to a ready worker
	results  chan *leaseDone // completed leases, deduped by the collector
	drain    chan struct{}   // closed when the campaign is over
	failed   chan struct{}   // closed on an unrecoverable lease failure
	failOnce sync.Once
	failErr  error

	batchSeq atomic.Uint64
	leaseSeq atomic.Uint64
	connWG   sync.WaitGroup
}

func (c *coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

func (c *coordinator) fail(err error) {
	c.failOnce.Do(func() {
		c.failErr = err
		close(c.failed)
	})
}

// ExecuteBatch partitions one strategy batch into leases, streams them to
// whichever workers are ready, and reassembles the results in lease order —
// the distributed half of the engine's determinism contract. It feeds and
// collects in one select loop, so results merge while later leases are still
// being handed out.
func (c *coordinator) ExecuteBatch(ctx context.Context, plans []campaign.Plan) ([]campaign.RunResult, error) {
	batch := c.batchSeq.Add(1)
	size := c.opts.LeaseSize
	leases := make([]*lease, 0, (len(plans)+size-1)/size)
	for at := 0; at < len(plans); at += size {
		end := at + size
		if end > len(plans) {
			end = len(plans)
		}
		leases = append(leases, &lease{
			id:    c.leaseSeq.Add(1),
			batch: batch,
			idx:   len(leases),
			plans: plans[at:end],
			done:  make(chan struct{}),
		})
	}

	parts := make([][]campaign.RunResult, len(leases))
	remaining := len(leases)
	next := 0
	for remaining > 0 {
		// Only offer the queue a lease while some remain unhanded; a nil
		// channel parks that select case.
		var feed chan *lease
		var offer *lease
		if next < len(leases) {
			feed, offer = c.queue, leases[next]
		}
		select {
		case feed <- offer:
			next++
		case d := <-c.results:
			// First delivery wins; anything from an older batch or an
			// already-merged lease is a deterministic duplicate — drop it.
			if d.l.batch != batch || parts[d.l.idx] != nil {
				c.opts.Metrics.Counter("dist/results/duplicates").Inc()
				continue
			}
			parts[d.l.idx] = d.results
			close(d.l.done)
			remaining--
		case <-c.failed:
			return nil, c.failErr
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

// requeue puts a lease back in rotation after a worker failure, with
// exponential backoff and a bounded retry count.
func (c *coordinator) requeue(l *lease, cause error) {
	select {
	case <-l.done:
		return // a duplicate grant already completed it
	default:
	}
	l.fails++
	if l.fails > c.opts.MaxLeaseRetries {
		c.opts.Metrics.Counter("dist/leases/exhausted").Inc()
		c.fail(fmt.Errorf("dist: lease %d (%d plan(s)) failed %d times, last cause: %w",
			l.id, len(l.plans), l.fails, cause))
		return
	}
	c.opts.Metrics.Counter("dist/leases/requeued").Inc()
	backoff := c.opts.RetryBackoff << (l.fails - 1)
	c.logf("dist: requeueing lease %d after %v (attempt %d/%d): %v",
		l.id, backoff, l.fails, c.opts.MaxLeaseRetries, cause)
	time.AfterFunc(backoff, func() {
		select {
		case c.queue <- l:
		case <-l.done:
		case <-c.drain:
		}
	})
}

// deliver hands a completed lease to the collector (or drops it if the lease
// was already satisfied or the campaign is over).
func (c *coordinator) deliver(l *lease, results []campaign.RunResult) {
	select {
	case c.results <- &leaseDone{l: l, results: results}:
	case <-l.done:
	case <-c.drain:
	}
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
// campaign drains or the worker fails. At most one lease is outstanding per
// worker, so reassignment semantics stay simple: a worker that fails or
// expires forfeits exactly one lease.
func (c *coordinator) handleConn(conn net.Conn) {
	defer c.connWG.Done()
	defer conn.Close()

	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(c.opts.LeaseTimeout))
	var hello message
	if err := readMessage(br, &hello); err != nil || hello.Type != msgHello {
		return
	}
	if hello.Proto != ProtoVersion {
		_ = writeMessage(conn, &message{Type: msgError,
			Err: fmt.Sprintf("protocol version %d, coordinator speaks %d", hello.Proto, ProtoVersion)})
		return
	}
	heartbeat := c.opts.LeaseTimeout / 4
	if err := writeMessage(conn, &message{
		Type: msgConfig, Workload: c.workload,
		Seed: c.seed, Traced: c.traced, HeartbeatMS: heartbeat.Milliseconds(),
	}); err != nil {
		return
	}
	c.logf("dist: worker %q joined from %s", hello.Worker, conn.RemoteAddr())
	c.opts.Metrics.Counter("dist/workers/joined").Inc()

	// The reader turns the socket into liveness + results: every frame
	// refreshes the deadline, so LeaseTimeout of silence — a crashed or
	// frozen worker — kills the connection and requeues its lease.
	dead := make(chan struct{})
	inbox := make(chan *message, 4)
	go func() {
		defer close(dead)
		// Frame arrival gaps are the coordinator's view of worker liveness:
		// a healthy worker's gaps cluster at the heartbeat interval, and the
		// histogram's tail shows how close leases come to the timeout.
		gaps := c.opts.Metrics.Histogram("dist/heartbeat-gap-ns")
		last := time.Now()
		for {
			_ = conn.SetReadDeadline(time.Now().Add(c.opts.LeaseTimeout))
			m := new(message)
			if err := readMessage(br, m); err != nil {
				return
			}
			now := time.Now()
			gaps.Observe(now.Sub(last).Nanoseconds())
			last = now
			switch m.Type {
			case msgHeartbeat:
				// The deadline refresh above is the entire point.
			case msgResult:
				select {
				case inbox <- m:
				case <-c.drain:
					return
				}
			default:
				return // protocol violation
			}
		}
	}()

	sendDrain := func() {
		_ = conn.SetWriteDeadline(time.Now().Add(c.opts.LeaseTimeout))
		_ = writeMessage(conn, &message{Type: msgDrain})
	}

	for {
		select {
		case <-c.drain:
			sendDrain()
			return
		case <-dead:
			c.logf("dist: worker %q left", hello.Worker)
			c.opts.Metrics.Counter("dist/workers/lost").Inc()
			return
		case l := <-c.queue:
			select {
			case <-l.done:
				continue // satisfied while queued (duplicate grant path)
			default:
			}
			if err := writeMessage(conn, &message{Type: msgLease, Lease: l.id, Plans: l.plans}); err != nil {
				c.requeue(l, fmt.Errorf("granting to %q: %w", hello.Worker, err))
				return
			}
			c.opts.Metrics.Counter("dist/leases/granted").Inc()
			grantedAt := time.Now()
			var expiry <-chan time.Time
			var expiryTimer *time.Timer
			if c.opts.LeaseExpiry > 0 {
				expiryTimer = time.NewTimer(c.opts.LeaseExpiry)
				expiry = expiryTimer.C
			}
			stopExpiry := func() {
				if expiryTimer != nil {
					expiryTimer.Stop()
				}
			}
		await:
			for {
				select {
				case m := <-inbox:
					if m.Lease != l.id {
						continue // stray result for an expired predecessor
					}
					if err := checkResults(l.plans, m.Results); err != nil {
						stopExpiry()
						c.requeue(l, fmt.Errorf("worker %q %w", hello.Worker, err))
						return
					}
					c.opts.Metrics.Histogram("dist/lease-latency-ns").Observe(time.Since(grantedAt).Nanoseconds())
					c.deliver(l, m.Results)
					stopExpiry()
					break await
				case <-dead:
					stopExpiry()
					c.opts.Metrics.Counter("dist/workers/lost").Inc()
					c.requeue(l, fmt.Errorf("worker %q lost mid-lease", hello.Worker))
					return
				case <-expiry:
					// Hung but heartbeating: forfeit the lease and the worker.
					c.opts.Metrics.Counter("dist/leases/expired").Inc()
					c.requeue(l, fmt.Errorf("lease %d expired on worker %q after %v",
						l.id, hello.Worker, c.opts.LeaseExpiry))
					return
				case <-c.drain:
					stopExpiry()
					sendDrain()
					return
				}
			}
		}
	}
}

// Serve runs a distributed campaign: listen for workers, execute the
// campaign engine with leases fanned over them, drain, and return the
// result. The produced corpus is byte-identical to the in-process
// campaign.Run with the same (workload, cfg, prior) at any worker count —
// including workers joining late, crashing mid-lease, or hanging.
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
		results:  make(chan *leaseDone, 16),
		drain:    make(chan struct{}),
		failed:   make(chan struct{}),
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
