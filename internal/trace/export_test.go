package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// EncodeChunked is Encode with record chunks of n instead of 1 024, for
// streams of many chunks from small traces.
func EncodeChunked(t *Trace, w io.Writer, n int) error { return t.encode(w, n) }

// WithHeader returns the encoded stream raw with its header (the flags and
// the four size hints Encode always writes) replaced by hdr — {0} is the
// hint-less header a reader must still take, since files come from outside.
func WithHeader(raw, hdr []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw[len(FormatMagic):]))
	if err != nil {
		return nil, err
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 5; i++ { // flags, then symbol, stack, PID and record totals
		_, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("header varint %d is cut or overflows", i)
		}
		payload = payload[n:]
	}
	out := bytes.NewBufferString(FormatMagic)
	zw := newDeflater()
	zw.Reset(out)
	zw.Write(hdr)
	zw.Write(payload)
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// CountDecodeStates makes the decode pool count the states it constructs, so
// a test can tell a decode that recycled a state from one that made its own.
func CountDecodeStates() (made func() int64, restore func()) {
	var n atomic.Int64
	old := decodePool.New
	decodePool.New = func() any {
		n.Add(1)
		return old()
	}
	return n.Load, func() { decodePool.New = old }
}

// NewDeflater is the constructor of the gzip writers Encode writes through.
var NewDeflater = newDeflater

// SetDeflaterSource replaces the deflater pool with an empty one that makes
// its writers with mk — the next encoder gets exactly mk's writer. nil puts
// an empty production pool back.
func SetDeflaterSource(mk func() *gzip.Writer) {
	if mk == nil {
		mk = newDeflater
	}
	deflaterPool = sync.Pool{New: func() any { return mk() }}
}
