package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// FormatMagic is the 4-byte tag leading every trace file (the chunked FCT2
// layout — see fct2.go). It sits outside the gzip layer so a reader can
// reject anything else before decompressing a byte.
const FormatMagic = "FCT2"

// FormatVersion is the trace-format generation the magic encodes.
const FormatVersion = 2

// Save writes the trace to path in the FCT2 format.
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	defer f.Close()
	if err := t.Encode(f); err != nil {
		return fmt.Errorf("trace: encode %s: %w", path, err)
	}
	return nil
}

// Load reads a trace written by Save.
func Load(path string) (*Trace, error) {
	src, err := Open(path)
	if err != nil {
		return nil, err
	}
	return src.Drain()
}

// Encode writes the trace to w in the FCT2 format.
func (t *Trace) Encode(w io.Writer) error { return t.encode(w, encodeChunk) }

// Decode reads an FCT2 trace from r.
func Decode(r io.Reader) (*Trace, error) {
	src, err := NewSource(r)
	if err != nil {
		return nil, err
	}
	return src.Drain()
}

// colEncoder writes varint columns, capturing the first error.
type colEncoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (e *colEncoder) uvarint(u uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], u)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *colEncoder) varint(v int64) {
	if e.err != nil {
		return
	}
	n := binary.PutVarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *colEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

// ops writes an OpID list as a count plus delta-encoded IDs (taint lists are
// near-sorted small ranges, so deltas stay in one or two bytes).
func (e *colEncoder) ops(ids []OpID) {
	e.uvarint(uint64(len(ids)))
	prev := int64(0)
	for _, id := range ids {
		e.varint(int64(id) - prev)
		prev = int64(id)
	}
}

// decodeWindow is the size of the byte window a colDecoder refills from the
// inflate stream. A record costs under ten decompressed bytes, so one window
// carries well over a thousand of them between refills.
const decodeWindow = 16 << 10

// errVarintOverflow is encoding/binary's (unexported) overflow error, text
// for text, so corrupt-stream messages read as they always have.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// colDecoder mirrors colEncoder, capturing the first error. It decodes from
// a byte window it owns: varints are parsed straight out of win[lo:hi], and
// the reader behind it is asked for more only when the window runs dry.
// Strings are copied out of the window, never aliased — the window is pooled
// (see decodeState) and symbols outlive it.
type colDecoder struct {
	r    io.Reader // the inflate stream; nil once the source is closed
	win  []byte
	lo   int // win[lo:hi] is read from r but not yet consumed
	hi   int
	base int64 // decompressed bytes consumed before win[0]
	rerr error // what r returned once it stopped delivering (io.EOF at a clean end)
	err  error

	// Range limits for the record columns of the chunk being decoded (set by
	// decodeChunk): the symbol and stack tables always precede the chunk that
	// needs them, and an op may only be referenced from a chunk that contains
	// it or follows it.
	maxSym, maxStack, maxOp uint64

	// ids and lens stage one chunk's Taint and Ctl lists — all ids back to
	// back, one length per list — until carveLists knows their total and can
	// back them with one exact arena.
	ids  []OpID
	lens []int32
}

// pos is the number of decompressed bytes consumed so far.
func (d *colDecoder) pos() int64 { return d.base + int64(d.lo) }

// fill slides the unconsumed bytes to the front of the window and reads more
// behind them. It reports whether the window grew; once it returns false,
// rerr says why the stream stopped.
func (d *colDecoder) fill() bool {
	if d.lo > 0 {
		d.base += int64(d.lo)
		d.hi = copy(d.win, d.win[d.lo:d.hi])
		d.lo = 0
	}
	for d.rerr == nil && d.hi < len(d.win) {
		n, err := d.r.Read(d.win[d.hi:])
		d.hi += n
		d.rerr = err
		if n > 0 {
			return true
		}
	}
	return false
}

// need makes at least n unconsumed bytes available (n ≤ len(win)) and
// reports whether it could before the stream stopped.
func (d *colDecoder) need(n int) bool {
	for d.hi-d.lo < n {
		if !d.fill() {
			return false
		}
	}
	return true
}

// short consumes what is left of the window and records the error for a
// value cut off by the end of the stream: the reader's own error, or
// io.ErrUnexpectedEOF when it ended cleanly but mid-value.
func (d *colDecoder) short() {
	if d.rerr != io.EOF {
		d.err = d.rerr
	} else if d.lo < d.hi {
		d.err = io.ErrUnexpectedEOF
	} else {
		d.err = io.EOF
	}
	d.lo = d.hi
}

// drain discards the rest of the stream and returns what ended it, nil for
// a clean EOF.
func (d *colDecoder) drain() error {
	for d.lo = d.hi; d.fill(); d.lo = d.hi {
	}
	if d.rerr == io.EOF {
		return nil
	}
	return d.rerr
}

func (d *colDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.lo < d.hi && d.win[d.lo] < 0x80 {
		d.lo++
		return uint64(d.win[d.lo-1])
	}
	// binary.Uvarint needs the whole varint in view to tell a long one from a
	// cut one.
	whole := d.need(binary.MaxVarintLen64)
	u, n := binary.Uvarint(d.win[d.lo:d.hi])
	switch {
	case n > 0:
		d.lo += n
	case n == 0 && !whole:
		d.short()
	default: // ten continuation bytes, or a tenth byte past 64 bits
		d.lo += binary.MaxVarintLen64
		d.err = errVarintOverflow
	}
	return u
}

func (d *colDecoder) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// ref reads a uvarint that indexes a table (or the record sequence) whose
// last valid index is last.
func (d *colDecoder) ref(last uint64, what string) uint64 {
	u := d.uvarint()
	if u > last && d.err == nil {
		d.err = fmt.Errorf("%s %d out of range (last valid: %d)", what, u, last)
	}
	return u
}

func (d *colDecoder) str() string {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return ""
	}
	if n > 1<<24 {
		d.err = fmt.Errorf("string length %d too large", n)
		return ""
	}
	need := int(n)
	if need <= len(d.win) {
		if !d.need(need) {
			d.short()
			return ""
		}
		d.lo += need
		return string(d.win[d.lo-need : d.lo])
	}
	// Longer than the window: gather it piecewise.
	buf := make([]byte, 0, need)
	for len(buf) < need {
		if d.lo == d.hi && !d.fill() {
			d.short()
			return ""
		}
		k := min(need-len(buf), d.hi-d.lo)
		buf = append(buf, d.win[d.lo:d.lo+k]...)
		d.lo += k
	}
	return string(buf)
}

// ops stages one OpID list (count + delta-encoded ids) for carveLists.
func (d *colDecoder) ops() {
	n := d.uvarint()
	if n > 1<<24 && d.err == nil {
		d.err = fmt.Errorf("op list length %d too large", n)
	}
	if d.err != nil {
		return
	}
	d.lens = append(d.lens, int32(n))
	prev := int64(0)
	for ; n > 0 && d.err == nil; n-- {
		prev += d.varint()
		if uint64(prev) > d.maxOp && d.err == nil {
			d.err = fmt.Errorf("taint op %d out of range (last valid: %d)", prev, d.maxOp)
		}
		d.ids = append(d.ids, OpID(prev))
	}
}

// carveLists hands the staged lists to rs (all Taint lists, then all Ctl
// lists, as the columns are laid out): one arena of exactly the chunk's ids,
// each list clipped to its own length so an append by a consumer reallocates
// instead of running into its neighbour. Empty lists stay nil.
func (d *colDecoder) carveLists(rs []Record) {
	arena := append([]OpID(nil), d.ids...)
	carve := func(n int32) []OpID {
		if n == 0 {
			return nil
		}
		l := arena[:n:n]
		arena = arena[n:]
		return l
	}
	for i := range rs {
		rs[i].Taint = carve(d.lens[i])
	}
	for i := range rs {
		rs[i].Ctl = carve(d.lens[len(rs)+i])
	}
}
