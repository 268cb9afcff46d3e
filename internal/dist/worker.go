package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/obs"
	"fcatch/internal/sim"
)

// WorkerConfig parameterizes one campaign worker.
type WorkerConfig struct {
	// Addr is the coordinator's host:port.
	Addr string
	// Name identifies the worker in coordinator logs ("" = worker-<pid>).
	Name string
	// Parallelism bounds the worker's local fan-out per lease
	// (0 = GOMAXPROCS, 1 = sequential). Purely a throughput knob — results
	// are identical at any setting.
	Parallelism int
	// Resolve maps the coordinator's workload name to a runnable workload
	// (the CLI passes fcatch.ByName). Required.
	Resolve func(name string) (core.Workload, error)
	// DialAttempts bounds connection attempts before giving up (0 = 10);
	// retries back off exponentially from DialBackoff (0 = 100ms, capped at
	// 2s) so a worker can be started before its coordinator.
	DialAttempts int
	DialBackoff  time.Duration
	// Metrics, when non-nil, receives worker-side telemetry: lease/plan
	// counts, per-lease execution latency, heartbeats sent. Observe-only.
	Metrics *obs.Registry

	// misbehave is the fault-injection hook of this package's own tests: it
	// is asked about every lease the worker is granted (1 for the first) and
	// says how the worker mishandles it. nil = every lease is served.
	misbehave func(lease int) leaseFault
}

// leaseFault is one way a worker under test fails the lease it was granted.
type leaseFault int

const (
	faultNone leaseFault = iota
	// faultCrash: the worker drops the connection after the grant, without
	// executing or replying — "worker crashes between lease grant and result
	// return".
	faultCrash
	// faultFreeze: no result, no heartbeats, connection held open, until the
	// coordinator gives up (its read deadline fires) — the frozen process.
	faultFreeze
	// faultLivelock: the worker keeps heartbeating but never returns a result
	// — the hung-but-alive case only Options.LeaseExpiry can break.
	faultLivelock
)

func (cfg WorkerConfig) withDefaults() WorkerConfig {
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if cfg.DialAttempts <= 0 {
		cfg.DialAttempts = 10
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 100 * time.Millisecond
	}
	return cfg
}

// RunWorker connects to a coordinator, executes leases with the same
// engine-identical code path local campaigns use (campaign.ExecPlans), and
// returns when the coordinator drains or the context is cancelled. A nil
// error means a clean exit (drain or cancellation); anything else is a
// protocol or execution failure.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	cfg = cfg.withDefaults()
	if cfg.Resolve == nil {
		return errors.New("dist: WorkerConfig.Resolve is required")
	}

	conn, err := dialRetry(ctx, cfg)
	if err != nil {
		return cleanIfCancelled(ctx, err)
	}
	defer conn.Close()

	// Cancellation unblocks the read loop by closing the socket.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stopWatch:
		}
	}()

	var writeMu sync.Mutex
	send := func(m *message) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		return writeMessage(conn, m)
	}

	if err := send(&message{Type: msgHello, Proto: ProtoVersion, Worker: cfg.Name}); err != nil {
		return cleanIfCancelled(ctx, fmt.Errorf("dist: hello: %w", err))
	}
	br := bufio.NewReader(conn)
	var conf message
	if err := readMessage(br, &conf); err != nil {
		return cleanIfCancelled(ctx, fmt.Errorf("dist: reading config: %w", err))
	}
	switch conf.Type {
	case msgConfig:
	case msgError:
		return fmt.Errorf("dist: coordinator rejected worker: %s", conf.Err)
	default:
		return fmt.Errorf("dist: expected config frame, got %q", conf.Type)
	}
	w, err := cfg.Resolve(conf.Workload)
	if err != nil {
		_ = send(&message{Type: msgError, Err: err.Error()})
		return err
	}

	// Heartbeats cover long lease executions: the coordinator's liveness
	// window is frame arrival, and a lease can legitimately run longer than
	// it. silenced (faultFreeze) stops them without closing the socket.
	var silenced atomic.Bool
	hbStop := make(chan struct{})
	defer close(hbStop)
	interval := time.Duration(conf.HeartbeatMS) * time.Millisecond
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if silenced.Load() {
					continue
				}
				if err := send(&message{Type: msgHeartbeat}); err != nil {
					return
				}
				cfg.Metrics.Counter("worker/heartbeats").Inc()
			case <-hbStop:
				return
			}
		}
	}()

	leases := 0
	for {
		var m message
		if err := readMessage(br, &m); err != nil {
			if ctx.Err() != nil || errors.Is(err, io.EOF) {
				return nil // cancelled, or coordinator went away after drain
			}
			return fmt.Errorf("dist: reading lease: %w", err)
		}
		switch m.Type {
		case msgLease:
			leases++
			if cfg.misbehave != nil {
				switch cfg.misbehave(leases) {
				case faultCrash:
					return nil // vanish between grant and result
				case faultFreeze:
					silenced.Store(true)
					<-ctx.Done() // hold the socket, say nothing
					return nil
				case faultLivelock:
					<-ctx.Done() // heartbeats keep flowing, no result
					return nil
				}
			}
			// Lease frames cross a trust boundary like corpus files do: an
			// empty or malformed plan is refused, never run as something else.
			for i, p := range m.Plans {
				if err := sim.ValidateScenario(p); err != nil {
					err = fmt.Errorf("dist: lease %d plan %d: %w", m.Lease, i, err)
					_ = send(&message{Type: msgError, Err: err.Error()})
					return err
				}
			}
			cfg.Metrics.Counter("worker/leases").Inc()
			cfg.Metrics.Counter("worker/plans").Add(int64(len(m.Plans)))
			execStart := time.Now()
			results, err := campaign.ExecPlans(ctx, w, conf.Seed, conf.Traced, cfg.Parallelism, m.Plans)
			if err != nil {
				return nil // cancelled mid-lease; the coordinator requeues it
			}
			cfg.Metrics.Histogram("worker/lease-exec-ns").Observe(time.Since(execStart).Nanoseconds())
			if err := send(&message{Type: msgResult, Lease: m.Lease, Results: results}); err != nil {
				return cleanIfCancelled(ctx, fmt.Errorf("dist: sending result: %w", err))
			}
		case msgDrain:
			return nil
		case msgError:
			return fmt.Errorf("dist: coordinator error: %s", m.Err)
		default:
			return fmt.Errorf("dist: unexpected frame %q", m.Type)
		}
	}
}

// cleanIfCancelled is err, or nil once ctx is cancelled: a worker told to stop
// exits cleanly, whatever step the cancellation cut short.
func cleanIfCancelled(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// dialRetry connects with bounded exponential backoff, so workers can be
// launched before (or independently of) their coordinator.
func dialRetry(ctx context.Context, cfg WorkerConfig) (net.Conn, error) {
	var d net.Dialer
	backoff := cfg.DialBackoff
	var lastErr error
	for attempt := 0; attempt < cfg.DialAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
		conn, err := d.DialContext(ctx, "tcp", cfg.Addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("dist: cannot reach coordinator at %s after %d attempts: %w",
		cfg.Addr, cfg.DialAttempts, lastErr)
}
