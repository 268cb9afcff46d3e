package trace

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// The FCT2 layout, after the magic, is one gzip stream of tagged sections:
//
//	header         uvarint flags; flags&1 = size hints follow (uvarint symbol,
//	               stack, PID and record totals — written when the encoder
//	               knows them, e.g. encoding a materialized trace)
//	secSyms (1)    uvarint count, then count strings (uvarint len + bytes)
//	               appended to the symbol table (continuing from wherever the
//	               table stood)
//	secStacks (2)  uvarint count, then count (uvarint parent, uvarint frame)
//	               nodes appended to the stack table
//	secPIDs (3)    uvarint count, then count PID strings appended to the list
//	secRecords (4) uvarint count, then just those count records column by
//	               column (all TS, then all Machines, ... in Record field
//	               order): TS delta-encoded varints continuing across chunks;
//	               Sym/StackID/OpID/flag columns as uvarints; Taint and Ctl as
//	               uvarint count + delta-encoded varint IDs per record. Record
//	               IDs are implicit and continue from the previous chunk
//	secMeta (5)    varint CrashStep, string CrashedPID, varint BaselineNanos
//	secEnd (6)     uvarint total record count (truncation check) — always last
//
// Table sections are emitted incrementally, immediately before the first
// record chunk that needs the new entries, so a decoder can resolve every
// Sym/StackID/PID the moment a chunk arrives and never needs the whole
// stream in memory. Strings are stored once in the symbol table; the column
// data is small integers, which is where the format's compactness comes from.

const (
	secSyms = 1 + iota
	secStacks
	secPIDs
	secRecords
	secMeta
	secEnd
)

// hintedFlag marks an FCT2 header that carries size hints.
const hintedFlag = 1

// fct2ChunkCap bounds one record chunk's declared count — a corrupt stream
// cannot make the decoder allocate an unbounded window.
const fct2ChunkCap = 1 << 22

// fct2HintCap bounds the header size hints used for eager pre-allocation.
const fct2HintCap = 1 << 18

// StreamEncoder writes the FCT2 format incrementally: feed it windows of
// records (it doubles as a Writer subscriber) and Close it with the final
// trace to append run metadata. New symbols, stacks and PIDs interned since
// the previous window are emitted ahead of each record chunk.
type StreamEncoder struct {
	zw *gzip.Writer // from deflaterPool; back there, and nil, after Close
	bw *bufio.Writer
	e  colEncoder

	sentSyms   int
	sentStacks int
	sentPIDs   int
	prevTS     int64
	total      uint64
	closed     bool
}

// NewStreamEncoder starts an FCT2 stream on w (magic + header).
func NewStreamEncoder(w io.Writer) (*StreamEncoder, error) {
	return newStreamEncoder(w, nil)
}

// deflaterPool recycles gzip writers across encoders: a fresh one zeroes over
// a megabyte of deflate state, several times what encoding a typical trace
// costs. Reset makes a recycled writer indistinguishable from a new one, so
// the bytes written do not depend on which one an encoder got. A pooled
// writer still points at the last stream it wrote to (dropping that would
// cost a second Reset) but never writes to it again.
var deflaterPool = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

func newStreamEncoder(w io.Writer, hints *SizeHints) (*StreamEncoder, error) {
	if _, err := io.WriteString(w, FormatMagic); err != nil {
		return nil, fmt.Errorf("trace: fct2 magic: %w", err)
	}
	zw := deflaterPool.Get().(*gzip.Writer)
	zw.Reset(w)
	enc := &StreamEncoder{zw: zw, sentSyms: 1, sentStacks: 1}
	enc.bw = bufio.NewWriter(enc.zw)
	enc.e.w = enc.bw
	if hints == nil {
		enc.e.uvarint(0)
	} else {
		enc.e.uvarint(hintedFlag)
		enc.e.uvarint(uint64(hints.Syms))
		enc.e.uvarint(uint64(hints.Stacks))
		enc.e.uvarint(uint64(hints.PIDs))
		enc.e.uvarint(uint64(hints.Records))
	}
	return enc, enc.e.err
}

// syncTables emits the table entries interned since the last window.
func (enc *StreamEncoder) syncTables(t *Trace) {
	if n := t.NumSyms(); n > enc.sentSyms {
		enc.e.uvarint(secSyms)
		enc.e.uvarint(uint64(n - enc.sentSyms))
		for y := enc.sentSyms; y < n; y++ {
			enc.e.str(t.syms.Str(Sym(y)))
		}
		enc.sentSyms = n
	}
	if n := t.NumStacks(); n > enc.sentStacks {
		enc.e.uvarint(secStacks)
		enc.e.uvarint(uint64(n - enc.sentStacks))
		for id := enc.sentStacks; id < n; id++ {
			node := t.stacks.nodes[id]
			enc.e.uvarint(uint64(node.parent))
			enc.e.uvarint(uint64(node.frame))
		}
		enc.sentStacks = n
	}
	if n := len(t.PIDs); n > enc.sentPIDs {
		enc.e.uvarint(secPIDs)
		enc.e.uvarint(uint64(n - enc.sentPIDs))
		for _, pid := range t.PIDs[enc.sentPIDs:] {
			enc.e.str(pid)
		}
		enc.sentPIDs = n
	}
}

// Window encodes one window of records (a trace.WindowFn).
func (enc *StreamEncoder) Window(t *Trace, recs []Record) {
	if len(recs) == 0 || enc.e.err != nil || enc.closed {
		return
	}
	enc.syncTables(t)
	enc.e.uvarint(secRecords)
	enc.e.uvarint(uint64(len(recs)))
	encodeRecColumns(&enc.e, recs, &enc.prevTS)
	enc.total += uint64(len(recs))
}

// Close emits any table entries still pending, the run metadata and the end
// section, and finishes the gzip stream.
func (enc *StreamEncoder) Close(t *Trace) error {
	if enc.closed {
		return nil
	}
	enc.closed = true
	defer func() {
		deflaterPool.Put(enc.zw)
		enc.zw = nil
	}()
	enc.syncTables(t)
	enc.e.uvarint(secMeta)
	enc.e.varint(t.CrashStep)
	enc.e.str(t.CrashedPID)
	enc.e.varint(t.BaselineNanos)
	enc.e.uvarint(secEnd)
	enc.e.uvarint(enc.total)
	if enc.e.err != nil {
		return fmt.Errorf("trace: fct2 encode: %w", enc.e.err)
	}
	if err := enc.bw.Flush(); err != nil {
		return fmt.Errorf("trace: fct2 encode: %w", err)
	}
	if err := enc.zw.Close(); err != nil {
		return fmt.Errorf("trace: fct2 encode: %w", err)
	}
	return nil
}

// EncodeStream drains src, writing the chunked FCT2 stream to w. The source
// is closed. Size hints are written when the source knows its totals.
func EncodeStream(src Source, w io.Writer) error {
	var hints *SizeHints
	if h, ok := src.(Hinter); ok {
		if sh, known := h.SizeHints(); known {
			hints = &sh
		}
	}
	enc, err := newStreamEncoder(w, hints)
	if err != nil {
		src.Close()
		return err
	}
	defer src.Close()
	for {
		win, err := src.Next()
		if err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		enc.Window(src.Trace(), win)
		if enc.e.err != nil {
			return fmt.Errorf("trace: fct2 encode: %w", enc.e.err)
		}
	}
	return enc.Close(src.Trace())
}

// decodeState is the per-stream machinery of a decode, recycled through
// decodePool: the reader the magic is peeked through (and the inflater then
// pulls bytes from), the inflater, the decoder's byte window and its
// list-staging scratch. A source borrows one in newSource and returns it
// exactly once, in Close, dropping its own references first — nothing a
// source hands out (records, Taint/Ctl lists, symbols) points into it.
type decodeState struct {
	br   bufio.Reader
	zr   gzip.Reader
	win  [decodeWindow]byte
	ids  []OpID
	lens []int32
}

var decodePool = sync.Pool{New: func() any { return new(decodeState) }}

// release detaches the state from the stream it was reading and pools it.
func (st *decodeState) release() {
	st.br.Reset(nil)
	decodePool.Put(st)
}

var errSourceClosed = errors.New("trace: source is closed")

// fct2Source is the streaming FCT2 decoder: each Next() call decodes
// sections up to and including one record chunk. With SetRetain(false) the
// decoded records are not accumulated in the trace (the window buffer is
// reused), so a full-stream scan runs in O(batch + tables) memory. A source
// that is never closed is simply not recycled.
type fct2Source struct {
	t  *Trace
	d  colDecoder
	st *decodeState // nil once closed
	rc io.Closer    // underlying file, when opened from a path

	hints    SizeHints
	hinted   bool
	retain   bool
	buf      []Record
	nRead    int
	prevTS   int64
	sawMeta  bool
	done     bool
	firstErr error
}

// newFCT2Source starts decoding the gzip stream behind st.br; on error the
// caller still owns st.
func newFCT2Source(st *decodeState) (*fct2Source, error) {
	// Reset leaves the reader in multistream mode, so the drain at secEnd
	// runs to the real end of input and every gzip footer on the way is
	// checked.
	if err := st.zr.Reset(&st.br); err != nil {
		return nil, fmt.Errorf("trace: fct2 gunzip: %w", err)
	}
	s := &fct2Source{t: New(), st: st, retain: true}
	s.d = colDecoder{r: &st.zr, win: st.win[:], ids: st.ids, lens: st.lens}

	flags := s.d.uvarint()
	if s.d.err != nil {
		return nil, s.fail("header", s.d.err)
	}
	if flags&hintedFlag != 0 {
		// Hints are advisory pre-sizing data; clamp them so a corrupt or
		// hostile header cannot force huge allocations before a single byte
		// of real data has decoded. Streams larger than the cap still decode
		// — they just grow incrementally past it.
		s.hints = SizeHints{
			Syms:    min(int(s.d.uvarint()), fct2HintCap),
			Stacks:  min(int(s.d.uvarint()), fct2HintCap),
			PIDs:    min(int(s.d.uvarint()), fct2HintCap),
			Records: min(int(s.d.uvarint()), fct2HintCap),
		}
		if s.d.err != nil {
			return nil, s.fail("header", s.d.err)
		}
		s.hinted = true
		s.t.syms.grow(s.hints.Syms)
		s.t.stacks.grow(s.hints.Stacks)
	}
	return s, nil
}

// SetRetain switches record retention (default true). Must be called before
// the first Next.
func (s *fct2Source) SetRetain(retain bool) { s.retain = retain }

func (s *fct2Source) Trace() *Trace { return s.t }

func (s *fct2Source) SizeHints() (SizeHints, bool) { return s.hints, s.hinted }

// fail wraps a section decode error with the stream position. A plain EOF
// mid-section is a truncation, not a clean end.
func (s *fct2Source) fail(section string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	werr := fmt.Errorf("trace: fct2 %s section at decompressed offset %d (%d records decoded): %w",
		section, s.d.pos(), s.nRead, err)
	if s.firstErr == nil {
		s.firstErr = werr
	}
	return werr
}

func (s *fct2Source) Next() ([]Record, error) {
	if s.firstErr != nil {
		return nil, s.firstErr
	}
	if s.done {
		return nil, io.EOF
	}
	if s.st == nil {
		return nil, errSourceClosed
	}
	for {
		tag := s.d.uvarint()
		if s.d.err != nil {
			// A stream that stops cleanly before its end section is
			// truncated: secEnd is mandatory.
			return nil, s.fail("tag", s.d.err)
		}
		switch tag {
		case secSyms:
			n := s.d.uvarint()
			for i := uint64(0); i < n && s.d.err == nil; i++ {
				s.t.Intern(s.d.str())
			}
			if s.d.err != nil {
				return nil, s.fail("symbols", s.d.err)
			}
		case secStacks:
			n := s.d.uvarint()
			for i := uint64(0); i < n && s.d.err == nil; i++ {
				parent := StackID(s.d.uvarint())
				frame := Sym(s.d.uvarint())
				if s.d.err != nil {
					break
				}
				if int(parent) >= s.t.NumStacks() {
					return nil, s.fail("stacks", fmt.Errorf("node %d references undefined parent %d", s.t.NumStacks(), parent))
				}
				s.t.stacks.Push(parent, frame)
			}
			if s.d.err != nil {
				return nil, s.fail("stacks", s.d.err)
			}
		case secPIDs:
			n := s.d.uvarint()
			for i := uint64(0); i < n && s.d.err == nil; i++ {
				s.t.PIDs = append(s.t.PIDs, s.d.str())
			}
			if s.d.err != nil {
				return nil, s.fail("pids", s.d.err)
			}
		case secRecords:
			n := s.d.uvarint()
			if s.d.err != nil {
				return nil, s.fail("records", s.d.err)
			}
			if n > fct2ChunkCap {
				return nil, s.fail("records", fmt.Errorf("chunk of %d records exceeds cap %d", n, fct2ChunkCap))
			}
			win, err := s.decodeChunk(int(n))
			if err != nil {
				return nil, err
			}
			return win, nil
		case secMeta:
			s.t.CrashStep = s.d.varint()
			s.t.CrashedPID = s.d.str()
			s.t.BaselineNanos = s.d.varint()
			if s.d.err != nil {
				return nil, s.fail("meta", s.d.err)
			}
			s.sawMeta = true
		case secEnd:
			total := s.d.uvarint()
			if s.d.err != nil {
				return nil, s.fail("end", s.d.err)
			}
			if total != uint64(s.nRead) {
				return nil, s.fail("end", fmt.Errorf("stream declares %d records, decoded %d", total, s.nRead))
			}
			if !s.sawMeta {
				return nil, s.fail("end", fmt.Errorf("missing meta section"))
			}
			// Drain to EOF so the gzip layer validates its footer — a
			// partial write that clips the CRC must not pass as a clean
			// stream.
			if err := s.d.drain(); err != nil {
				return nil, s.fail("end", err)
			}
			s.done = true
			return nil, io.EOF
		default:
			return nil, s.fail("tag", fmt.Errorf("unknown section tag %d", tag))
		}
	}
}

// decodeChunk decodes one chunk of n records. Every table index and op
// reference in it is range-checked as it is read (colDecoder.ref), so
// consumers may index dense per-Sym and per-op tables with a delivered
// record's fields without checking again.
func (s *fct2Source) decodeChunk(n int) ([]Record, error) {
	var rs []Record
	if s.retain {
		if s.nRead == 0 && s.hinted && cap(s.t.Records) < s.hints.Records && s.hints.Records <= fct2ChunkCap*64 {
			s.t.Records = make([]Record, 0, s.hints.Records)
		}
		base := len(s.t.Records)
		s.t.Records = append(s.t.Records, make([]Record, n)...)
		rs = s.t.Records[base:]
	} else {
		if cap(s.buf) < n {
			s.buf = make([]Record, n)
		}
		rs = s.buf[:n]
		for i := range rs {
			rs[i] = Record{}
		}
	}
	for i := range rs {
		rs[i].ID = OpID(s.nRead + i + 1)
	}
	s.d.maxSym = uint64(s.t.NumSyms() - 1)
	s.d.maxStack = uint64(s.t.NumStacks() - 1)
	s.d.maxOp = uint64(s.nRead + n)
	if err := decodeRecColumns(&s.d, rs, &s.prevTS); err != nil {
		if s.retain {
			s.t.Records = s.t.Records[:len(s.t.Records)-n]
		}
		return nil, s.fail("records", err)
	}
	s.nRead += n
	return rs, nil
}

// Close returns the decode state to the pool and closes the underlying file,
// if the source opened one. Afterwards the source holds no reference to the
// pooled state and Next fails.
func (s *fct2Source) Close() error {
	st := s.st
	if st == nil {
		return nil
	}
	st.ids, st.lens = s.d.ids[:0], s.d.lens[:0] // keep what the scratch grew to
	s.st, s.d.r, s.d.win, s.d.ids, s.d.lens = nil, nil, nil, nil, nil
	err := st.zr.Close()
	st.release()
	if s.rc != nil {
		if cerr := s.rc.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// encodeRecColumns writes the record columns for one batch.
// prevTS carries the timestamp delta base across chunks.
func encodeRecColumns(e *colEncoder, rs []Record, prevTS *int64) {
	for i := range rs {
		e.varint(rs[i].TS - *prevTS)
		*prevTS = rs[i].TS
	}
	for i := range rs {
		e.uvarint(uint64(rs[i].Machine))
	}
	for i := range rs {
		e.uvarint(uint64(rs[i].PID))
	}
	for i := range rs {
		e.uvarint(uint64(rs[i].Thread))
	}
	for i := range rs {
		e.uvarint(uint64(rs[i].Frame))
	}
	for i := range rs {
		e.uvarint(uint64(rs[i].Kind))
	}
	for i := range rs {
		e.uvarint(uint64(rs[i].Site))
	}
	for i := range rs {
		e.uvarint(uint64(rs[i].Stack))
	}
	for i := range rs {
		e.uvarint(uint64(rs[i].Res))
	}
	for i := range rs {
		e.uvarint(uint64(rs[i].Src))
	}
	for i := range rs {
		e.uvarint(uint64(rs[i].Aux))
	}
	for i := range rs {
		e.uvarint(uint64(rs[i].Target))
	}
	for i := range rs {
		e.uvarint(uint64(rs[i].Flags))
	}
	for i := range rs {
		e.uvarint(uint64(rs[i].Causor))
	}
	for i := range rs {
		e.ops(rs[i].Taint)
	}
	for i := range rs {
		e.ops(rs[i].Ctl)
	}
}

// decodeRecColumns reads the record columns for one batch into rs (IDs must
// already be assigned), range-checking every table index and op reference
// against the decoder's limits. prevTS carries the delta base across chunks.
func decodeRecColumns(d *colDecoder, rs []Record, prevTS *int64) error {
	for i := range rs {
		*prevTS += d.varint()
		rs[i].TS = *prevTS
	}
	for i := range rs {
		rs[i].Machine = Sym(d.ref(d.maxSym, "machine symbol"))
	}
	for i := range rs {
		rs[i].PID = Sym(d.ref(d.maxSym, "pid symbol"))
	}
	for i := range rs {
		rs[i].Thread = int(d.uvarint())
	}
	for i := range rs {
		rs[i].Frame = OpID(d.ref(d.maxOp, "frame op"))
	}
	for i := range rs {
		rs[i].Kind = Kind(d.ref(uint64(numKinds-1), "kind"))
	}
	for i := range rs {
		rs[i].Site = Sym(d.ref(d.maxSym, "site symbol"))
	}
	for i := range rs {
		rs[i].Stack = StackID(d.ref(d.maxStack, "stack"))
	}
	for i := range rs {
		rs[i].Res = Sym(d.ref(d.maxSym, "resource symbol"))
	}
	for i := range rs {
		rs[i].Src = OpID(d.ref(d.maxOp, "source op"))
	}
	for i := range rs {
		rs[i].Aux = Sym(d.ref(d.maxSym, "aux symbol"))
	}
	for i := range rs {
		rs[i].Target = Sym(d.ref(d.maxSym, "target symbol"))
	}
	for i := range rs {
		rs[i].Flags = uint32(d.uvarint())
	}
	for i := range rs {
		rs[i].Causor = OpID(d.ref(d.maxOp, "causor op"))
	}
	d.ids, d.lens = d.ids[:0], d.lens[:0]
	for range rs {
		d.ops() // Taint
	}
	for range rs {
		d.ops() // Ctl
	}
	if d.err == nil {
		d.carveLists(rs)
	}
	return d.err
}

// Open opens an FCT2 trace file as a streaming Source.
func Open(path string) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open: %w", err)
	}
	src, err := newSource(f, f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return src, nil
}

// NewSource wraps an arbitrary reader holding an FCT2 stream as a streaming
// Source.
func NewSource(r io.Reader) (Source, error) {
	return newSource(r, nil)
}

func newSource(r io.Reader, closer io.Closer) (Source, error) {
	st := decodePool.Get().(*decodeState)
	st.br.Reset(r)
	head, err := st.br.Peek(len(FormatMagic))
	if err == nil && string(head) != FormatMagic {
		err = fmt.Errorf("unrecognized trace format (magic %q)", head)
	}
	if err != nil {
		st.release()
		return nil, fmt.Errorf("decode: %w", err)
	}
	st.br.Discard(len(FormatMagic)) // just peeked: cannot fail
	s, err := newFCT2Source(st)
	if err != nil {
		st.release()
		return nil, err
	}
	s.rc = closer
	return s, nil
}
