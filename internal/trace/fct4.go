package trace

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sync"
)

// The FCT4 layout, after the magic, is one gzip stream holding, in order:
//
//	counts    uvarint symbol, stack node and record counts (slot 0 of either
//	          table is the reserved empty entry and is not counted)
//	symbols   that many strings (uvarint len + bytes), from slot 1 up
//	stacks    that many (uvarint parent, uvarint frame) nodes, from slot 1 up
//	records   the record columns: all TS, then all Machines, ... in Record
//	          field order. TS is delta-encoded varints; Sym/StackID/OpID/flag
//	          columns are uvarints; Taint and Ctl are a uvarint count +
//	          delta-encoded varint IDs per record. Record IDs are implicit
//
// and nothing after the last column. Each count is exact, and a decoder
// range-checks every table index and op reference against them as it reads
// it. Strings are stored once in the symbol table; the column data is small
// integers, which is where the format's compactness comes from. The records
// are all there is: the processes of a run and its crashes are read from its
// thread-start and crash records.

// recStep is how many records a decoder allocates ahead of the TS values it
// has read, or as many as it has read if that is more: a stream that
// declares more records than it carries costs at most that much.
const recStep = 4096

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

// Encode writes the trace to w in the FCT4 format.
func (t *Trace) Encode(w io.Writer) error {
	if _, err := io.WriteString(w, FormatMagic); err != nil {
		return fmt.Errorf("trace: fct4 magic: %w", err)
	}
	zw := deflaterPool.Get().(*gzip.Writer)
	zw.Reset(w)
	defer deflaterPool.Put(zw)
	bw := bufio.NewWriter(zw)
	e := colEncoder{w: bw}

	e.uvarint(uint64(t.NumSyms() - 1))
	e.uvarint(uint64(t.NumStacks() - 1))
	e.uvarint(uint64(len(t.Records)))
	for y := 1; y < t.NumSyms(); y++ {
		e.str(t.syms.Str(Sym(y)))
	}
	for id := 1; id < t.NumStacks(); id++ {
		e.uvarint(uint64(t.stacks.nodes[id].parent))
		e.uvarint(uint64(t.stacks.nodes[id].frame))
	}
	encodeRecColumns(&e, t.Records)

	err := e.err
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = zw.Close()
	}
	if err != nil {
		return fmt.Errorf("trace: fct4 encode: %w", err)
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

// Source is the FCT4 decoder: a saved trace being read back. Drain decodes
// it whole; a truncated or corrupt stream yields a wrapped, position-bearing
// error. Single-use and not safe for concurrent use; a source that is never
// drained or closed is simply not recycled.
type Source struct {
	d  colDecoder
	st *decodeState // nil once closed
}

// NewSource starts decoding the FCT4 stream r holds.
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
	// Reset leaves the reader in multistream mode, so the drain after the
	// last column runs to the real end of input and every gzip footer on the
	// way is checked.
	if err := st.zr.Reset(&st.br); err != nil {
		st.release()
		return nil, fmt.Errorf("fct4 gunzip: %w", err)
	}
	s := &Source{st: st, d: newColDecoder(&st.zr, st.win[:])}
	s.d.ids, s.d.lens, s.d.text = st.ids, st.lens, st.text
	return s, nil
}

// fail wraps a section decode error with the stream position. A plain EOF
// mid-section is a truncation, not a clean end.
func (s *Source) fail(section string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("fct4 %s section at decompressed offset %d: %w", section, s.d.pos(), err)
}

// Drain decodes the rest of the stream, closes the source and returns the
// complete trace. Every table index and op reference is range-checked as it
// is read (colDecoder.ref), so consumers may index dense per-Sym and per-op
// tables with a decoded record's fields without checking again.
func (s *Source) Drain() (*Trace, error) {
	if s.st == nil {
		return nil, errSourceClosed
	}
	defer s.Close()
	d := &s.d
	nsyms, nstacks, nrecs := d.uvarint(), d.uvarint(), d.uvarint()
	if d.err != nil {
		return nil, s.fail("counts", d.err)
	}
	t := New()
	if d.symbols(nsyms, &t.syms); d.err != nil {
		return nil, s.fail("symbols", d.err)
	}
	if d.stacks(nstacks, nsyms, &t.stacks); d.err != nil {
		return nil, s.fail("stacks", d.err)
	}
	d.maxSym, d.maxStack, d.maxOp = nsyms, nstacks, nrecs
	if t.Records = decodeRecColumns(d, nrecs); d.err != nil {
		return nil, s.fail("records", d.err)
	}
	if err := d.end(); err != nil {
		return nil, s.fail("end", err)
	}
	return t, nil
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

// encodeRecColumns writes the record columns.
func encodeRecColumns(e *colEncoder, rs []Record) {
	prevTS := int64(0)
	for i := range rs {
		e.varint(rs[i].TS - prevTS)
		prevTS = rs[i].TS
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

// decodeRecColumns reads the columns of n records, range-checking every
// table index and op reference against the decoder's limits. The records are
// allocated as their TS values arrive (see recStep), so a stream that stops
// short costs what it carried; on an error what it returns is not a trace.
func decodeRecColumns(d *colDecoder, n uint64) []Record {
	var rs []Record
	prevTS := int64(0)
	for i := 0; uint64(i) < n; i++ {
		if i == len(rs) {
			if d.err != nil {
				return nil
			}
			grown := make([]Record, i+int(min(n-uint64(i), uint64(max(recStep, i)))))
			copy(grown, rs)
			rs = grown
		}
		prevTS += d.varint()
		rs[i].ID, rs[i].TS = OpID(i+1), prevTS
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
	return rs
}
