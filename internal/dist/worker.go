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
	"time"

	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/obs"
	"fcatch/internal/parallel"
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
	// Metrics, when non-nil, receives worker-side telemetry: lease/plan
	// counts, per-lease execution latency, progress frames sent.
	// Observe-only.
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
	// faultFreeze: no result, no progress, connection held open, until the
	// coordinator gives up on the lease — the frozen process.
	faultFreeze
)

func (cfg WorkerConfig) withDefaults() WorkerConfig {
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	return cfg
}

// RunWorker connects to a coordinator, executes leases with the same
// engine-identical code path local campaigns use (campaign.ExecPlan), and
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

	if err := writeMessage(conn, &message{Type: msgHello, Proto: ProtoVersion, Worker: cfg.Name}); err != nil {
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
		_ = writeMessage(conn, &message{Type: msgError, Err: err.Error()})
		return err
	}
	restart := w.RestartRoles() // read-only, shared by every plan of every lease

	// send writes one frame; the plans of a lease finish concurrently. A
	// progress frame goes out only once the coordinator has heard nothing
	// for the interval it dictated, counted from the grant or the last frame.
	interval := time.Duration(conf.ProgressMS) * time.Millisecond
	var writeMu sync.Mutex
	var heard time.Time
	send := func(m *message) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		if m.Type == msgProgress && time.Since(heard) < interval {
			return nil
		}
		heard = time.Now()
		if err := writeMessage(conn, m); err != nil {
			return err
		}
		if m.Type == msgProgress {
			cfg.Metrics.Counter("worker/progress").Inc()
		}
		return nil
	}

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
					<-ctx.Done() // hold the socket, say nothing
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
			heard = execStart // no plan is running to race this write
			results, err := parallel.Map(ctx, cfg.Parallelism, len(m.Plans), func(i int) campaign.RunResult {
				r := campaign.ExecPlan(w, conf.Seed, m.Plans[i], restart, conf.Traced)
				_ = send(&message{Type: msgProgress})
				return r
			})
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
	backoff := dialBackoff
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
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
		cfg.Addr, dialAttempts, lastErr)
}
