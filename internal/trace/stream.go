package trace

import "io"

// The streaming trace pipeline moves records between stages in bounded
// windows instead of materialized []Record slices:
//
//	producer (sim tracer, FCT2 decoder)
//	    └─ Writer ── WindowFn subscribers (coverage fold, fault-space fold,
//	                 stream encoder, ...)
//	consumer (hb graph, campaign space, grep)
//	    └─ Source.Next() windows
//
// A window is a slice of records that were just appended to the stage's
// Trace; symbol/stack tables and the PID list are always complete for every
// record already delivered, so consumers may resolve Syms as windows arrive.
// Unless a stage explicitly discards records (Writer.SetRetain(false), a
// non-retaining decoder), windows alias Trace.Records and stay valid after
// the callback returns — records are never mutated once appended.

// DefaultBatch is the window size (in records) retaining stages use when the
// caller does not choose one. Large enough to amortize per-window overhead,
// small enough that a window is a rounding error next to the index.
const DefaultBatch = 1024

// discardWindow is the size (in records) of the one window a non-retaining
// Writer owns for its whole life. A discarded run is thousands of records
// nobody keeps, so the window is sized to cost little per run, not to
// amortize subscriber calls: 48 records is 6.4 KB, and the window folds of
// injection runs do a few compares per record.
const discardWindow = 48

// Source is the pull side of the streaming pipeline: a trace being
// progressively revealed. Next returns the next window of records, io.EOF
// after the last one. Trace() returns the destination trace — its symbol and
// stack tables, PID list and (by the time Next returns io.EOF) crash
// metadata cover every record delivered so far. Sources are single-use and
// not safe for concurrent use.
type Source interface {
	// Trace returns the trace the source populates as it is drained.
	Trace() *Trace
	// Next returns the next window of records, in trace order. It returns
	// io.EOF when the stream is exhausted and a wrapped, position-bearing
	// error when the underlying stream is truncated or corrupt. The window
	// is valid until the next call to Next for non-retaining sources, and
	// indefinitely for retaining ones.
	Next() ([]Record, error)
	// Close releases the source's underlying resources (idempotent).
	Close() error
}

// SizeHints carries the element totals a source may know in advance (the
// FCT2 header written by Encode records them, and the decoder pre-sizes the
// trace's tables and record slice from them).
type SizeHints struct {
	Syms, Stacks, PIDs, Records int
}

// Hinter is implemented by Sources that know their totals up front.
type Hinter interface {
	SizeHints() (SizeHints, bool)
}

// Drain consumes src to completion and returns the fully materialized trace.
// It closes the source. LoadTrace/Decode are thin wrappers over Drain.
func Drain(src Source) (*Trace, error) {
	defer src.Close()
	for {
		if _, err := src.Next(); err == io.EOF {
			return src.Trace(), nil
		} else if err != nil {
			return nil, err
		}
	}
}

// SourceOf streams an already materialized trace in windows of batch records
// (DefaultBatch if batch <= 0).
func SourceOf(t *Trace, batch int) Source {
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &memSource{t: t, batch: batch}
}

type memSource struct {
	t     *Trace
	pos   int
	batch int
}

func (s *memSource) Trace() *Trace { return s.t }

func (s *memSource) Next() ([]Record, error) {
	if s.pos >= len(s.t.Records) {
		return nil, io.EOF
	}
	end := s.pos + s.batch
	if end > len(s.t.Records) {
		end = len(s.t.Records)
	}
	win := s.t.Records[s.pos:end]
	s.pos = end
	return win, nil
}

func (s *memSource) Close() error { return nil }

func (s *memSource) SizeHints() (SizeHints, bool) {
	return SizeHints{
		Syms:    s.t.NumSyms(),
		Stacks:  s.t.NumStacks(),
		PIDs:    len(s.t.PIDs),
		Records: len(s.t.Records),
	}, true
}

// WindowFn receives one bounded window of freshly appended records. The
// trace's symbol/stack tables cover everything in the window. Callbacks run
// synchronously on the producer (for the sim tracer: under the scheduler
// baton) and must not retain the slice when the producing Writer is
// non-retaining.
type WindowFn func(t *Trace, recs []Record)

// Writer is the push side of the streaming pipeline: it interns records into
// a Trace and tees them to subscribers in bounded windows. With
// SetRetain(false) the records are not accumulated in the trace — the trace
// then carries only symbol tables, PIDs and run metadata, and the records of
// the whole run pass through one fixed window of discardWindow records that
// is allocated once and reused — but every subscriber still sees the full
// stream. Single-writer, like the Trace it wraps.
type Writer struct {
	t      *Trace
	batch  int // retaining: records per window
	retain bool
	subs   []WindowFn
	start  int      // retaining: first unflushed index into t.Records
	buf    []Record // non-retaining: the fixed window, flushed when full
	n      int      // non-retaining: records appended (the OpID source)
}

// NewWriter wraps t in a retaining Writer flushing windows of batch records
// (DefaultBatch if batch <= 0).
func NewWriter(t *Trace, batch int) *Writer {
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &Writer{t: t, batch: batch, retain: true}
}

// Trace returns the destination trace.
func (w *Writer) Trace() *Trace { return w.t }

// Subscribe adds a window callback. Must be called before the first Append.
func (w *Writer) Subscribe(fn WindowFn) { w.subs = append(w.subs, fn) }

// SetRetain switches record retention (default true). Must be called before
// the first Append. A non-retaining writer ignores the batch it was built
// with: its window is fixed at discardWindow records.
func (w *Writer) SetRetain(retain bool) {
	w.retain = retain
	if !retain && w.buf == nil {
		w.buf = make([]Record, 0, discardWindow)
	}
}

// Len returns the number of records appended so far.
func (w *Writer) Len() int {
	if w.retain {
		return len(w.t.Records)
	}
	return w.n
}

// Append adds one record, assigning its dense OpID, and flushes a window to
// the subscribers whenever batch records have accumulated (retaining) or the
// fixed window is full (non-retaining).
func (w *Writer) Append(r Record) OpID {
	var id OpID
	if w.retain {
		id = w.t.Append(r)
		if len(w.t.Records)-w.start >= w.batch {
			w.flush()
		}
		return id
	}
	w.n++
	id = OpID(w.n)
	r.ID = id
	w.buf = append(w.buf, r)
	if len(w.buf) == cap(w.buf) {
		w.flush()
	}
	return id
}

// Flush delivers the final partial window to the subscribers. The producer
// calls it once, after the last Append.
func (w *Writer) Flush() { w.flush() }

func (w *Writer) flush() {
	if w.retain {
		if w.start >= len(w.t.Records) {
			return
		}
		win := w.t.Records[w.start:]
		w.start = len(w.t.Records)
		for _, fn := range w.subs {
			fn(w.t, win)
		}
		return
	}
	if len(w.buf) == 0 {
		return
	}
	for _, fn := range w.subs {
		fn(w.t, w.buf)
	}
	w.buf = w.buf[:0]
}
