package trace

// Records leave a run in one of two ways. A kept run appends every record to
// Trace.Records, and whatever analyses it afterwards has the complete trace.
// A folded run keeps none: each record passes once through a WindowFn — the
// campaign's coverage and fault-space folds, the trigger's handled-exception
// fold — and the trace carries only the symbol and stack tables, the PID
// list and the run metadata the fold's answer is resolved against.

// WindowFn folds one window of a run's records, in trace order. The trace's
// symbol/stack tables cover everything in the window. It is called
// synchronously on the producer (for the sim tracer: while one simulated
// thread runs) and must not keep the slice: the window is reused.
type WindowFn func(t *Trace, recs []Record)

// foldWindow is the size (in records) of the one window a folding Writer
// owns for its whole life. A folded run is thousands of records nobody keeps,
// so the window is sized to cost little per run, not to amortize fold calls:
// 48 records is 6.4 KB, and the folds of injection runs do a few compares
// per record.
const foldWindow = 48

// Writer is where a run's records go: into the trace (fold == nil), or
// through fold in one fixed window that is allocated once and flushed when
// full. Single-writer, like the Trace it wraps.
type Writer struct {
	t    *Trace
	fold WindowFn
	win  []Record // folding: the fixed window
	n    int      // folding: records appended (the OpID source)
}

// NewWriter returns a Writer that keeps records in t, or, given a fold,
// passes them through it and keeps none.
func NewWriter(t *Trace, fold WindowFn) *Writer {
	w := &Writer{t: t, fold: fold}
	if fold != nil {
		w.win = make([]Record, 0, foldWindow)
	}
	return w
}

// Append adds one record, assigning its dense OpID.
func (w *Writer) Append(r Record) OpID {
	if w.fold == nil {
		return w.t.Append(r)
	}
	w.n++
	r.ID = OpID(w.n)
	w.win = append(w.win, r)
	if len(w.win) == cap(w.win) {
		w.Flush()
	}
	return r.ID
}

// Flush folds the final partial window. The producer calls it once, after
// the last Append; with nothing pending it does nothing.
func (w *Writer) Flush() {
	if len(w.win) > 0 {
		w.fold(w.t, w.win)
		w.win = w.win[:0]
	}
}
