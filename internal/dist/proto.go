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
// Robustness model: worker liveness is "a frame arrived recently" — workers
// heartbeat on an interval the coordinator dictates at handshake, and the
// coordinator reads with a rolling deadline. A worker that crashes, hangs,
// or disconnects forfeits its outstanding lease, which is requeued (bounded
// attempts, exponential backoff) for the surviving workers. An optional hard
// lease expiry reassigns a lease even from a worker that still heartbeats;
// duplicate deliveries are deduped first-wins, which is safe precisely
// because results are deterministic.
package dist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"fcatch/internal/campaign"
)

// ProtoVersion is the wire protocol generation. A mismatch at handshake is a
// hard error: leases carry strategy-proposed plans, and silently degrading
// would break the corpus-parity contract. Version 3: a plan is a JSON array
// of fault events (corpus schema 3); a version-2 worker expects objects.
const ProtoVersion = 3

// maxFrame bounds one length-prefixed frame. Leases hold at most a strategy
// batch of plans and results carry their signatures; 16 MiB is orders of
// magnitude above either, so anything larger is a corrupt or hostile peer.
const maxFrame = 16 << 20

// Message types.
const (
	// msgHello: worker -> coordinator, first frame after connect.
	msgHello = "hello"
	// msgConfig: coordinator -> worker, handshake reply pinning the campaign
	// identity (workload, seed, tracing mode) and the heartbeat interval.
	msgConfig = "config"
	// msgLease: coordinator -> worker, one lease of plans to execute.
	msgLease = "lease"
	// msgResult: worker -> coordinator, the lease's results in plan order.
	msgResult = "result"
	// msgHeartbeat: worker -> coordinator, "still alive" (sent on a ticker,
	// including while a lease is executing).
	msgHeartbeat = "heartbeat"
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
	Workload    string `json:"workload,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	Traced      bool   `json:"traced,omitempty"`
	HeartbeatMS int64  `json:"heartbeat_ms,omitempty"`

	// Lease / result fields.
	Lease   uint64               `json:"lease,omitempty"`
	Plans   []campaign.Plan      `json:"plans,omitempty"`
	Results []campaign.RunResult `json:"results,omitempty"`

	// Error field.
	Err string `json:"err,omitempty"`
}

// writeMessage frames m as a big-endian uint32 length followed by its JSON
// encoding. Callers serialize writes per connection (heartbeats and results
// share a socket on the worker side).
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
