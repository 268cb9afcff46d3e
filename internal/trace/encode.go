package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// FormatMagic is the 4-byte tag leading every trace file (the FCT4 layout —
// see fct4.go). It sits outside the gzip layer so a reader can reject
// anything else before decompressing a byte.
const FormatMagic = "FCT4"

// FormatVersion is the trace-format generation the magic encodes.
const FormatVersion = 4

// Save writes the trace to path in the FCT4 format.
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	err = t.Encode(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: save %s: %w", path, err)
	}
	return nil
}

// Load reads a trace written by Save.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open: %w", err)
	}
	defer f.Close()
	t, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return t, nil
}

// Decode reads an FCT4 trace from r.
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

// decodeWindow is the number of bytes the window a colDecoder refills from
// the gzip stream holds. A record costs about 23 decompressed bytes, so one
// window carries some seven hundred of them between refills.
const decodeWindow = 16 << 10

// endMark is the byte a colDecoder keeps just past the end of its unread
// bytes: a varint continuation byte, so uvarint's one-byte fast path stops on
// it without comparing against the window's end.
const endMark = 0x80

// errVarintOverflow is encoding/binary's (unexported) overflow error, text
// for text, so corrupt-stream messages read as they always have.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// colDecoder mirrors colEncoder, capturing the first error. It decodes from
// a byte window it owns: varints are parsed straight out of win[lo:hi], and
// the reader behind it is asked for more only when the window runs dry.
// win[hi] is always endMark, so the window holds len(win)-1 bytes of data.
// Strings are copied out of the window, never aliased — the window is pooled
// (see decodeState) and symbols outlive it.
type colDecoder struct {
	r    io.Reader // the gzip stream; nil once the source is closed
	win  []byte
	lo   int // win[lo:hi] is read from r but not yet consumed
	hi   int
	base int64 // decompressed bytes consumed before win[0]
	rerr error // what r returned once it stopped delivering (io.EOF at a clean end)
	err  error

	// The last valid symbol, stack and op for the record columns: the
	// stream's counts.
	maxSym, maxStack, maxOp uint64

	// ids and lens stage the Taint and Ctl lists — all ids back to back, one
	// length per list — until carveLists knows their total and can back them
	// with one exact arena. text and lens likewise stage the symbol strings.
	ids  []OpID
	lens []int32
	text []byte
}

// newColDecoder starts a decoder reading r through win, which holds
// len(win)-1 bytes of data and whatever it held before.
func newColDecoder(r io.Reader, win []byte) colDecoder {
	win[0] = endMark
	return colDecoder{r: r, win: win}
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
	grew := false
	for end := len(d.win) - 1; !grew && d.rerr == nil && d.hi < end; {
		n, err := d.r.Read(d.win[d.hi:end])
		d.hi += n
		d.rerr = err
		grew = n > 0
	}
	d.win[d.hi] = endMark
	return grew
}

// need makes at least n unconsumed bytes available (n < len(win)) and
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

// fail records the decoder's first error and ends the window at the current
// position, so uvarint's fast path needs no error check of its own: it meets
// endMark and leaves the read to the slow path, which returns 0.
func (d *colDecoder) fail(err error) {
	d.err = err
	d.hi = d.lo
	d.win[d.hi] = endMark
}

// end refuses any byte after the last column and returns what ended the
// stream, nil for a clean EOF. The gzip layer reports EOF only once it has
// checked the footer, so a partial write that clips the CRC fails here.
func (d *colDecoder) end() error {
	if d.lo < d.hi || d.fill() {
		return errors.New("data after the last record column")
	}
	if d.rerr == io.EOF {
		return nil
	}
	return d.rerr
}

// uvarint reads one uvarint. Its one-byte case, almost every column value,
// is small enough for the compiler to inline into the column loops (CI
// checks that it stays so): the end of the window and a recorded error both
// show up as endMark, which sends the read to the slow path.
func (d *colDecoder) uvarint() uint64 {
	if b := d.win[d.lo]; b < 0x80 {
		d.lo++
		return uint64(b)
	}
	return d.uvarintSlow()
}

func (d *colDecoder) uvarintSlow() uint64 {
	if d.err != nil {
		return 0
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
		d.fail(errVarintOverflow)
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
		d.fail(fmt.Errorf("%s %d out of range (last valid: %d)", what, u, last))
	}
	return u
}

// appendStr reads one string (uvarint length + bytes) onto the end of dst.
func (d *colDecoder) appendStr(dst []byte) []byte {
	n := d.uvarint()
	if d.err != nil {
		return dst
	}
	if n > 1<<24 {
		d.fail(fmt.Errorf("string length %d too large", n))
		return dst
	}
	for need := int(n); need > 0; {
		if d.lo == d.hi && !d.fill() {
			d.short()
			return dst
		}
		k := min(need, d.hi-d.lo)
		dst = append(dst, d.win[d.lo:d.lo+k]...)
		d.lo += k
		need -= k
	}
	return dst
}

// symbols reads n strings into st, which holds only its empty slot, all
// carved out of one allocation: a table's strings live exactly as long as
// its trace, so sharing one backing array costs no memory. A string already
// in the table (the empty one included) is refused, so the table ends up
// exactly n+1 long.
func (d *colDecoder) symbols(n uint64, st *SymTab) {
	d.text, d.lens = d.text[:0], d.lens[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		before := len(d.text)
		d.text = d.appendStr(d.text)
		d.lens = append(d.lens, int32(len(d.text)-before))
	}
	if d.err != nil {
		return
	}
	all := string(d.text)
	for i, l := range d.lens {
		if y := st.Intern(all[:l]); y != Sym(i+1) {
			d.fail(fmt.Errorf("symbol %d repeats symbol %d", i+1, y))
			return
		}
		all = all[l:]
	}
}

// ops stages one OpID list (count + delta-encoded ids) for carveLists.
func (d *colDecoder) ops() {
	n := d.uvarint()
	if n > 1<<24 && d.err == nil {
		d.fail(fmt.Errorf("op list length %d too large", n))
	}
	if d.err != nil {
		return
	}
	d.lens = append(d.lens, int32(n))
	prev := int64(0)
	for ; n > 0 && d.err == nil; n-- {
		prev += d.varint()
		if uint64(prev) > d.maxOp && d.err == nil {
			d.fail(fmt.Errorf("taint op %d out of range (last valid: %d)", prev, d.maxOp))
		}
		d.ids = append(d.ids, OpID(prev))
	}
}

// carveLists hands the staged lists to rs (all Taint lists, then all Ctl
// lists, as the columns are laid out): one arena of exactly the trace's ids,
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
