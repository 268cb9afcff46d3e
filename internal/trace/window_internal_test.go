package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// refDecoder is the decoder colDecoder replaced, verbatim: a bufio.Reader
// over a byte counter, varints through encoding/binary's ByteReader
// functions, strings through io.ReadFull. It is the reference for every
// value, error and stream position the byte-window decoder produces.
type refDecoder struct {
	r   *bufio.Reader
	n   *int64 // bytes the bufio.Reader has pulled from the stream
	err error
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func newRefDecoder(r io.Reader) *refDecoder {
	cr := &countingReader{r: r}
	return &refDecoder{r: bufio.NewReader(cr), n: &cr.n}
}

func (d *refDecoder) pos() int64 { return *d.n - int64(d.r.Buffered()) }

func (d *refDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
	}
	return u
}

func (d *refDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *refDecoder) str() string {
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

// errText is an error as Source.fail reports it: a bare EOF is a truncation.
func errText(err error) string {
	if err == nil {
		return ""
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err.Error()
}

// TestColDecoderMatchesBufioReference decodes one script of varints and
// strings with the byte-window decoder and with the bufio reference, step by
// step, and requires the same value, error and position after every step —
// for windows from the smallest legal one (so every varint and string
// straddles a refill somewhere) to the production size, for readers that
// deliver one byte at a time, half of what is asked, or data together with
// the error, and for the stream cut, or failing with a foreign error, at
// every byte.
func TestColDecoderMatchesBufioReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var e colEncoder
	var payload bytes.Buffer
	e.w = bufio.NewWriter(&payload)
	var script []byte // 'u', 'v' or 's' per step
	for i := 0; i < 120; i++ {
		switch rng.Intn(3) {
		case 0:
			e.uvarint(rng.Uint64() >> uint(rng.Intn(64)))
			script = append(script, 'u')
		case 1:
			e.varint(int64(rng.Uint64()) >> uint(rng.Intn(64)))
			script = append(script, 'v')
		default:
			n := rng.Intn(24)
			if rng.Intn(8) == 0 {
				n = 40 + rng.Intn(60) // longer than the small windows
			}
			e.str(strings.Repeat("s", n))
			script = append(script, 's')
		}
	}
	if err := e.w.Flush(); err != nil {
		t.Fatal(err)
	}
	good := payload.Bytes()
	// Two overflowing varints: a tenth byte carrying more than one bit, and
	// ten continuation bytes.
	over1 := append(append([]byte(nil), good...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x00)
	over2 := append(append([]byte(nil), good...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00)
	huge := binary.AppendUvarint(append([]byte(nil), good...), 1<<24+1) // a string length past the cap
	script = append(script, 's')                                        // the step that meets the appended bytes

	boom := errors.New("boom")
	shapes := map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data+err": iotest.DataErrReader,
	}
	compare := func(label string, data []byte, tail error, window int, shape func(io.Reader) io.Reader) {
		stream := func() io.Reader {
			if tail == nil {
				return shape(bytes.NewReader(data))
			}
			return shape(io.MultiReader(bytes.NewReader(data), iotest.ErrReader(tail)))
		}
		ref := newRefDecoder(stream())
		d := newColDecoder(stream(), make([]byte, window+1))
		for step, op := range script {
			var want, got any
			switch op {
			case 'u':
				want, got = ref.uvarint(), d.uvarint()
			case 'v':
				want, got = ref.varint(), d.varint()
			default:
				want, got = ref.str(), d.str()
			}
			if ref.err != nil {
				want, got = nil, nil // a failed read's value means nothing
			}
			if want != got || errText(ref.err) != errText(d.err) || ref.pos() != d.pos() {
				t.Fatalf("%s, window %d, step %d (%c): got (%v, %q, pos %d), reference (%v, %q, pos %d)",
					label, window, step, op, got, errText(d.err), d.pos(), want, errText(ref.err), ref.pos())
			}
			if ref.err != nil {
				return
			}
		}
	}
	for name, shape := range shapes {
		for _, window := range []int{binary.MaxVarintLen64, 16, 33, decodeWindow} {
			for _, data := range [][]byte{good, over1, over2, huge} {
				compare(name, data, nil, window, shape)
			}
			if window == decodeWindow && name != "whole" {
				continue // the cuts below never reach a refill of the full window
			}
			for cut := 0; cut < len(good); cut++ {
				compare(fmt.Sprintf("%s cut %d", name, cut), good[:cut], nil, window, shape)
				compare(fmt.Sprintf("%s boom %d", name, cut), good[:cut], boom, window, shape)
			}
		}
	}
}

// TestColDecoderStopsAtFirstError: once a read fails with bytes still in
// the window behind it, every later read returns a zero value and leaves the
// error and the position where the failure put them — that position is the
// offset a corrupt-stream message reports.
func TestColDecoderStopsAtFirstError(t *testing.T) {
	tail := []byte{7, 7, 0x81, 0x01, 2, 'o', 'k'} // a uvarint, a varint, a string
	cases := map[string]struct {
		bad  []byte
		read func(d *colDecoder)
	}{
		"out of range": {[]byte{9}, func(d *colDecoder) { d.ref(4, "probe") }},
		"overflow":     {bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64), func(d *colDecoder) { d.uvarint() }},
		"long string":  {binary.AppendUvarint(nil, 1<<24+1), func(d *colDecoder) { d.str() }},
	}
	for name, c := range cases {
		d := newColDecoder(bytes.NewReader(append(append([]byte{1}, c.bad...), tail...)), make([]byte, decodeWindow+1))
		if u := d.uvarint(); u != 1 {
			t.Fatalf("%s: first value %d, want 1", name, u)
		}
		c.read(&d)
		err, pos := d.err, d.pos()
		if err == nil || pos != int64(1+len(c.bad)) {
			t.Fatalf("%s: err %v at %d, want an error at %d", name, err, pos, 1+len(c.bad))
		}
		for i := 0; i < 3; i++ {
			u, v, str := d.uvarint(), d.varint(), d.str()
			if u != 0 || v != 0 || str != "" || d.err != err || d.pos() != pos {
				t.Fatalf("%s: read %d after the error gave (%d, %d, %q), err %v at %d", name, i, u, v, str, d.err, d.pos())
			}
		}
	}
}

// TestSourceTakesTablesBetweenChunks: Encode writes each table once, ahead of
// the first chunk, but the format lets a table section continue its table
// anywhere before the chunk that needs the entries. A hand-written stream
// that defines a fresh symbol, stack node and PID ahead of every one-record
// chunk decodes to the trace it describes — and a chunk that names a symbol
// defined only after it is refused.
func TestSourceTakesTablesBetweenChunks(t *testing.T) {
	want := New()
	var payload bytes.Buffer
	e := colEncoder{w: bufio.NewWriter(&payload)}
	e.uvarint(0) // the hint-less header
	sentSyms, sentStacks, prevTS := 1, 1, int64(0)
	for i := 0; i < 5; i++ {
		pid := fmt.Sprintf("node#%d", i)
		want.AddPID(pid)
		want.Append(Record{
			TS: int64(2 * i), Kind: KHeapRead, PID: want.Intern(pid), Causor: OpID(i),
			Site:  want.Intern(fmt.Sprintf("app/f.go:%d", i)),
			Stack: want.PushFrame(StackID(i), want.Intern(fmt.Sprintf("fn%d", i))),
		})
		e.uvarint(secSyms)
		e.uvarint(uint64(want.NumSyms() - sentSyms))
		for ; sentSyms < want.NumSyms(); sentSyms++ {
			e.str(want.Str(Sym(sentSyms)))
		}
		e.uvarint(secStacks)
		e.uvarint(uint64(want.NumStacks() - sentStacks))
		for ; sentStacks < want.NumStacks(); sentStacks++ {
			e.uvarint(uint64(want.stacks.nodes[sentStacks].parent))
			e.uvarint(uint64(want.stacks.nodes[sentStacks].frame))
		}
		e.uvarint(secPIDs)
		e.uvarint(1)
		e.str(pid)
		e.uvarint(secRecords)
		e.uvarint(1)
		encodeRecColumns(&e, want.Records[i:], &prevTS)
	}
	e.uvarint(secMeta)
	e.varint(want.CrashStep)
	e.str(want.CrashedPID)
	e.varint(want.BaselineNanos)
	e.uvarint(secEnd)
	e.uvarint(uint64(len(want.Records)))
	if err := e.w.Flush(); err != nil {
		t.Fatal(err)
	}
	stream := func(payload []byte) io.Reader {
		out := bytes.NewBufferString(FormatMagic)
		zw := gzip.NewWriter(out)
		zw.Write(payload)
		zw.Close()
		return out
	}

	got, err := Decode(stream(payload.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := got.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) || !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatal("a stream with a table section ahead of every chunk decoded to a different trace")
	}

	// The same records in one chunk ahead of their tables.
	payload.Reset()
	e = colEncoder{w: bufio.NewWriter(&payload)}
	prevTS = 0
	e.uvarint(0)
	e.uvarint(secRecords)
	e.uvarint(uint64(len(want.Records)))
	encodeRecColumns(&e, want.Records, &prevTS)
	e.w.Flush()
	if _, err := Decode(stream(payload.Bytes())); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("a chunk ahead of its tables: err = %v, want an out-of-range refusal", err)
	}
}
