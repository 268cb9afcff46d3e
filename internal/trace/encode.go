package trace

import (
	"bufio"
	"encoding/binary"
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

// Load reads a trace written by Save. It is a thin drain over Open; callers
// that want bounded memory use Open directly.
func Load(path string) (*Trace, error) {
	src, err := Open(path)
	if err != nil {
		return nil, err
	}
	return Drain(src)
}

// Encode writes the trace to w: the records are replayed through an
// in-memory Source into the chunked FCT2 encoder.
func (t *Trace) Encode(w io.Writer) error {
	return EncodeStream(SourceOf(t, 0), w)
}

// Decode reads an FCT2 trace from r. It is a thin drain over NewSource.
func Decode(r io.Reader) (*Trace, error) {
	src, err := NewSource(r)
	if err != nil {
		return nil, err
	}
	return Drain(src)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
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

// colDecoder mirrors colEncoder, capturing the first error.
type colDecoder struct {
	r   *bufio.Reader
	err error
}

func (d *colDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
	}
	return u
}

func (d *colDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
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
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = err
		return ""
	}
	return string(buf)
}

func (d *colDecoder) ops() []OpID {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > 1<<24 {
		d.err = fmt.Errorf("op list length %d too large", n)
		return nil
	}
	out := make([]OpID, n)
	prev := int64(0)
	for i := range out {
		prev += d.varint()
		out[i] = OpID(prev)
	}
	return out
}
