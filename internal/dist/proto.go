// Package dist shards a fault-injection campaign across worker processes
// over TCP. The coordinator runs the campaign engine (strategy, corpus,
// prior-corpus cache) unchanged through a distributed Executor: each strategy
// batch is partitioned into leases of N plans, leases stream to whichever
// workers are registered, and results fold back into the corpus in proposal
// order. Because every plan's result is a pure function of (workload, seed,
// plan), and because the merge is keyed by lease index rather than arrival
// order, the final corpus is byte-identical to a single-process run
// regardless of worker count, join order, or lease interleaving.
//
// Robustness model: the coordinator's ExecuteBatch owns every lease. A
// connection handler only grants what it offers and reports each outcome
// back, results or the error that forfeited the lease; ExecuteBatch drops
// stale and duplicate reports, puts a forfeited lease straight back in line,
// and aborts the campaign once one lease has failed more than
// maxLeaseRetries times. Liveness is one rule: a worker holding a lease shows
// progress. As each plan finishes the worker sends a progress frame unless it
// has sent one within the interval the coordinator dictated at handshake, and
// a lease whose worker sends no frame for leaseTimeout is forfeited — whether
// the worker crashed, froze or livelocked. An idle worker owes nothing.
package dist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"fcatch/internal/campaign"
)

// leaseTimeout is how long a worker holding a lease may go without sending a
// frame before it loses the lease; workers are told to show progress at a
// quarter of it. This package's tests shorten it.
var leaseTimeout = 15 * time.Second

const (
	// maxLeaseRetries is how many times one lease may be forfeited and
	// requeued before the campaign aborts.
	maxLeaseRetries = 3
	// dialAttempts bounds a worker's connection attempts; retries back off
	// exponentially from dialBackoff (capped at 2s), so a worker can be
	// started before its coordinator.
	dialAttempts = 10
	dialBackoff  = 100 * time.Millisecond
)

// ProtoVersion is the wire protocol generation. A mismatch at handshake is a
// hard error: leases carry strategy-proposed plans, and silently degrading
// would break the corpus-parity contract. Version 4: a worker shows progress
// only while it holds a lease, so an idle version-4 worker would time out
// against a version-3 coordinator, which expects heartbeats throughout.
const ProtoVersion = 4

// maxFrame bounds one length-prefixed frame. Leases hold at most a strategy
// batch of plans and results carry their signatures; 16 MiB is orders of
// magnitude above either, so anything larger is a corrupt or hostile peer.
const maxFrame = 16 << 20

// Message types.
const (
	// msgHello: worker -> coordinator, first frame after connect.
	msgHello = "hello"
	// msgConfig: coordinator -> worker, handshake reply pinning the campaign
	// identity (workload, seed, tracing mode) and the progress interval.
	msgConfig = "config"
	// msgLease: coordinator -> worker, one lease of plans to execute.
	msgLease = "lease"
	// msgResult: worker -> coordinator, the lease's results in plan order.
	msgResult = "result"
	// msgProgress: worker -> coordinator, "a plan of my lease finished" (sent
	// when the worker has sent no frame for the progress interval).
	msgProgress = "progress"
	// msgDrain: coordinator -> worker, campaign over — exit cleanly.
	msgDrain = "drain"
	// msgError: either direction, fatal condition description before close.
	msgError = "error"
)

// message is the single frame shape of the protocol; Type selects which
// fields are meaningful. One struct keeps decoding trivial (no two-step
// envelope unmarshal) at the cost of a few always-empty fields per frame.
type message struct {
	Type string `json:"type"`

	// Hello fields.
	Proto  int    `json:"proto,omitempty"`
	Worker string `json:"worker,omitempty"`

	// Config fields.
	Workload   string `json:"workload,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Traced     bool   `json:"traced,omitempty"`
	ProgressMS int64  `json:"progress_ms,omitempty"`

	// Lease / result fields.
	Lease   uint64               `json:"lease,omitempty"`
	Plans   []campaign.Plan      `json:"plans,omitempty"`
	Results []campaign.RunResult `json:"results,omitempty"`

	// Error field.
	Err string `json:"err,omitempty"`
}

// writeMessage frames m as a big-endian uint32 length followed by its JSON
// encoding. Callers serialize writes per connection (a worker's plans report
// progress concurrently).
func writeMessage(w io.Writer, m *message) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dist: encode %s frame: %w", m.Type, err)
	}
	if len(data) > maxFrame {
		return fmt.Errorf("dist: %s frame of %d bytes exceeds the %d-byte limit", m.Type, len(data), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// readMessage reads one frame into m, enforcing the frame-size bound before
// allocating.
func readMessage(r *bufio.Reader, m *message) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("dist: incoming frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return err
	}
	*m = message{}
	if err := json.Unmarshal(data, m); err != nil {
		return fmt.Errorf("dist: decode frame: %w", err)
	}
	if m.Type == "" {
		return fmt.Errorf("dist: frame missing type")
	}
	return nil
}
