package trace

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sync"
)

// The FCT2 layout, after the magic, is one gzip stream of tagged sections:
//
//	header         uvarint flags; flags&1 = size hints follow (uvarint symbol,
//	               stack, PID and record totals — Encode always writes them;
//	               a reader must take a header without them too)
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
//	secMeta (5)    varint CrashStep, string CrashedPID, varint 0 (a retired
//	               wall-clock slot: written as 0, read and skipped)
//	secEnd (6)     uvarint total record count (truncation check) — always last
//
// A table section may appear anywhere before the first record chunk that
// needs its entries, and more than once (each continues its table), so a
// decoder can resolve and range-check every Sym/StackID/PID of a chunk the
// moment it arrives. Encode has the whole trace and writes each table once,
// ahead of the first chunk. Strings are stored once in the symbol table; the
// column data is small integers, which is where the format's compactness
// comes from.

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
// cannot make the decoder allocate an unbounded chunk.
const fct2ChunkCap = 1 << 22

// fct2HintCap bounds the header size hints used for eager pre-allocation.
const fct2HintCap = 1 << 18

// encodeChunk is the number of records Encode puts in one chunk.
const encodeChunk = 1024

// newDeflater makes the gzip writer an encode writes through. It stores:
// every DEFLATE block it emits is a stored block, the column bytes verbatim.
// The gzip framing stays for its CRC32 and length footer, which is what
// makes a clipped or corrupted file fail to decode; compressing would only
// shrink a record from about 23 bytes to 8, and inflating it back costs a
// decoder some thirty times what reading stored bytes does.
func newDeflater() *gzip.Writer {
	zw, _ := gzip.NewWriterLevel(nil, gzip.NoCompression) // a valid level: cannot fail
	return zw
}

// deflaterPool recycles gzip writers across encodes: a fresh one allocates
// and zeroes some 700 KB of deflate state on its first write (the
// match-finder tables come whatever the level), more than encoding a typical
// trace costs. Reset makes a recycled writer indistinguishable from a new
// one, so the bytes written do not depend on which one an encode got. A
// pooled writer still points at the last stream it wrote to (dropping that
// would cost a second Reset) but never writes to it again.
var deflaterPool = sync.Pool{New: func() any { return newDeflater() }}

// encode writes t to w as one FCT2 stream: the header with the trace's
// totals as size hints, the three tables, the records in chunks of chunk,
// the run metadata and the end section.
func (t *Trace) encode(w io.Writer, chunk int) error {
	if _, err := io.WriteString(w, FormatMagic); err != nil {
		return fmt.Errorf("trace: fct2 magic: %w", err)
	}
	zw := deflaterPool.Get().(*gzip.Writer)
	zw.Reset(w)
	defer deflaterPool.Put(zw)
	bw := bufio.NewWriter(zw)
	e := colEncoder{w: bw}

	e.uvarint(hintedFlag)
	e.uvarint(uint64(t.NumSyms()))
	e.uvarint(uint64(t.NumStacks()))
	e.uvarint(uint64(len(t.PIDs)))
	e.uvarint(uint64(len(t.Records)))

	// Slot 0 of the symbol and stack tables is the reserved empty entry every
	// trace starts with; it is not written.
	if n := t.NumSyms(); n > 1 {
		e.uvarint(secSyms)
		e.uvarint(uint64(n - 1))
		for y := 1; y < n; y++ {
			e.str(t.syms.Str(Sym(y)))
		}
	}
	if n := t.NumStacks(); n > 1 {
		e.uvarint(secStacks)
		e.uvarint(uint64(n - 1))
		for _, node := range t.stacks.nodes[1:n] {
			e.uvarint(uint64(node.parent))
			e.uvarint(uint64(node.frame))
		}
	}
	if len(t.PIDs) > 0 {
		e.uvarint(secPIDs)
		e.uvarint(uint64(len(t.PIDs)))
		for _, pid := range t.PIDs {
			e.str(pid)
		}
	}

	prevTS := int64(0)
	for recs := t.Records; len(recs) > 0 && e.err == nil; {
		n := min(chunk, len(recs))
		e.uvarint(secRecords)
		e.uvarint(uint64(n))
		encodeRecColumns(&e, recs[:n], &prevTS)
		recs = recs[n:]
	}

	e.uvarint(secMeta)
	e.varint(t.CrashStep)
	e.str(t.CrashedPID)
	e.varint(0) // the retired wall-clock slot
	e.uvarint(secEnd)
	e.uvarint(uint64(len(t.Records)))
	err := e.err
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = zw.Close()
	}
	if err != nil {
		return fmt.Errorf("trace: fct2 encode: %w", err)
	}
	return nil
}

// decodeState is the per-stream machinery of a decode, recycled through
// decodePool: the reader the magic is peeked through (and the inflater then
// pulls bytes from), the inflater, the decoder's byte window and the scratch
// it stages lists and strings in. A source borrows one in NewSource and
// returns it exactly once, in Close, dropping its own references first —
// nothing a source hands out (records, Taint/Ctl lists, symbols) points into
// it.
type decodeState struct {
	br   bufio.Reader
	zr   gzip.Reader
	win  [decodeWindow + 1]byte // + 1 for the colDecoder's endMark
	ids  []OpID
	lens []int32
	text []byte
}

var decodePool = sync.Pool{New: func() any { return new(decodeState) }}

// release detaches the state from the stream it was reading and pools it.
func (st *decodeState) release() {
	st.br.Reset(nil)
	decodePool.Put(st)
}

var errSourceClosed = errors.New("trace: source is closed")

// Source is the FCT2 decoder: a saved trace being read back. Drain decodes
// it whole; a truncated or corrupt stream yields a wrapped, position-bearing
// error. Single-use and not safe for concurrent use; a source that is never
// drained or closed is simply not recycled.
type Source struct {
	t  *Trace
	d  colDecoder
	st *decodeState // nil once closed

	recHint int // the header's record total (clamped), 0 if it gave none
	prevTS  int64
	sawMeta bool
}

// newFCT2Source starts decoding the gzip stream behind st.br; on error the
// caller still owns st.
func newFCT2Source(st *decodeState) (*Source, error) {
	// Reset leaves the reader in multistream mode, so the drain at secEnd
	// runs to the real end of input and every gzip footer on the way is
	// checked.
	if err := st.zr.Reset(&st.br); err != nil {
		return nil, fmt.Errorf("trace: fct2 gunzip: %w", err)
	}
	s := &Source{t: New(), st: st}
	s.d = newColDecoder(&st.zr, st.win[:])
	s.d.ids, s.d.lens, s.d.text = st.ids, st.lens, st.text

	flags := s.d.uvarint()
	if s.d.err != nil {
		return nil, s.fail("header", s.d.err)
	}
	if flags&hintedFlag != 0 {
		// Hints are advisory pre-sizing data; clamp them so a corrupt or
		// hostile header cannot force huge allocations before a single byte
		// of real data has decoded. Streams larger than the cap still decode
		// — they just grow incrementally past it.
		syms := min(int(s.d.uvarint()), fct2HintCap)
		stacks := min(int(s.d.uvarint()), fct2HintCap)
		s.d.uvarint() // the PID total: nothing is sized by it
		s.recHint = min(int(s.d.uvarint()), fct2HintCap)
		if s.d.err != nil {
			return nil, s.fail("header", s.d.err)
		}
		s.t.syms.grow(syms)
		s.t.stacks.grow(stacks)
	}
	return s, nil
}

// fail wraps a section decode error with the stream position. A plain EOF
// mid-section is a truncation, not a clean end.
func (s *Source) fail(section string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: fct2 %s section at decompressed offset %d (%d records decoded): %w",
		section, s.d.pos(), len(s.t.Records), err)
}

// Drain decodes the rest of the stream, closes the source and returns the
// complete trace.
func (s *Source) Drain() (*Trace, error) {
	if s.st == nil {
		return nil, errSourceClosed
	}
	defer s.Close()
	for {
		tag := s.d.uvarint()
		if s.d.err != nil {
			// A stream that stops cleanly before its end section is
			// truncated: secEnd is mandatory.
			return nil, s.fail("tag", s.d.err)
		}
		switch tag {
		case secSyms:
			s.d.strs(s.d.uvarint(), func(sym string) { s.t.Intern(sym) })
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
			s.d.strs(s.d.uvarint(), func(pid string) { s.t.PIDs = append(s.t.PIDs, pid) })
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
			if err := s.decodeChunk(int(n)); err != nil {
				return nil, err
			}
		case secMeta:
			s.t.CrashStep = s.d.varint()
			s.t.CrashedPID = s.d.str()
			s.d.varint() // the retired wall-clock slot
			if s.d.err != nil {
				return nil, s.fail("meta", s.d.err)
			}
			s.sawMeta = true
		case secEnd:
			total := s.d.uvarint()
			if s.d.err != nil {
				return nil, s.fail("end", s.d.err)
			}
			if total != uint64(len(s.t.Records)) {
				return nil, s.fail("end", fmt.Errorf("stream declares %d records, decoded %d", total, len(s.t.Records)))
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
			return s.t, nil
		default:
			return nil, s.fail("tag", fmt.Errorf("unknown section tag %d", tag))
		}
	}
}

// decodeChunk decodes one chunk of n records onto the end of the trace.
// Every table index and op reference in it is range-checked as it is read
// (colDecoder.ref), so consumers may index dense per-Sym and per-op tables
// with a decoded record's fields without checking again.
func (s *Source) decodeChunk(n int) error {
	base := len(s.t.Records)
	if base == 0 && cap(s.t.Records) < s.recHint {
		s.t.Records = make([]Record, 0, s.recHint)
	}
	s.t.Records = append(s.t.Records, make([]Record, n)...)
	rs := s.t.Records[base:]
	for i := range rs {
		rs[i].ID = OpID(base + i + 1)
	}
	s.d.maxSym = uint64(s.t.NumSyms() - 1)
	s.d.maxStack = uint64(s.t.NumStacks() - 1)
	s.d.maxOp = uint64(base + n)
	if err := decodeRecColumns(&s.d, rs, &s.prevTS); err != nil {
		s.t.Records = s.t.Records[:base]
		return s.fail("records", err)
	}
	return nil
}

// Close returns the decode state to the pool. Afterwards the source holds no
// reference to the pooled state and Drain fails.
func (s *Source) Close() error {
	st := s.st
	if st == nil {
		return nil
	}
	st.ids, st.lens, st.text = s.d.ids[:0], s.d.lens[:0], s.d.text[:0] // keep what the scratch grew to
	s.st, s.d.r, s.d.win, s.d.ids, s.d.lens, s.d.text = nil, nil, nil, nil, nil, nil
	err := st.zr.Close()
	st.release()
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

// NewSource starts decoding the FCT2 stream r holds.
func NewSource(r io.Reader) (*Source, error) {
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
	return s, nil
}
