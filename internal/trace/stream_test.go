package trace_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"fcatch/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden files")

// readerShapes are the ways a test hands the decoder its input: whole, one
// byte per Read, and with the last bytes arriving together with io.EOF.
var readerShapes = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"whole", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"data+err", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
}

// decodeShapes decodes raw through every reader shape, requires the shapes
// to agree — the same trace content, or the same error text — and returns
// what the first one gave.
func decodeShapes(t *testing.T, raw []byte) (*trace.Trace, error) {
	t.Helper()
	var first *trace.Trace
	var firstErr error
	for i, shape := range readerShapes {
		got, err := trace.Decode(shape.wrap(raw))
		if i == 0 {
			first, firstErr = got, err
			continue
		}
		if (err == nil) != (firstErr == nil) || (err != nil && err.Error() != firstErr.Error()) {
			t.Fatalf("%s reader: err = %v, %s reader: err = %v", shape.name, err, readerShapes[0].name, firstErr)
		}
		if err == nil && !reflect.DeepEqual(flatten(got), flatten(first)) {
			t.Fatalf("%s reader decoded a different trace than the %s reader", shape.name, readerShapes[0].name)
		}
	}
	return first, firstErr
}

// TestFCT4CountsMustBeExact: the header's counts are the whole truth about
// the tables and records that follow. A stream whose symbol, stack or record
// count is one more or one less than what it carries is refused, and so is
// one whose header declares 2^40 of everything, with what the decoder
// pre-sizes on that word bounded by its clamp (2^18 entries per table, some
// 26 MiB of empty tables) — believed, the header asks for terabytes.
func TestFCT4CountsMustBeExact(t *testing.T) {
	tr := randomTrace(9, 120)
	raw := encode(t, tr)
	counts := []uint64{uint64(tr.NumSyms() - 1), uint64(tr.NumStacks() - 1), uint64(len(tr.Records))}
	header := func(cs []uint64) []byte {
		var hdr []byte
		for _, c := range cs {
			hdr = binary.AppendUvarint(hdr, c)
		}
		return hdr
	}
	alt, err := trace.WithHeader(raw, header(counts))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(alt, raw) {
		t.Fatal("the header Encode writes is not the trace's three counts")
	}
	for i, what := range []string{"symbol", "stack", "record"} {
		for _, delta := range []int64{-1, 1} {
			lying := append([]uint64(nil), counts...)
			lying[i] = uint64(int64(lying[i]) + delta)
			alt, err := trace.WithHeader(raw, header(lying))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeShapes(t, alt); err == nil {
				t.Errorf("a %s count off by %+d decoded cleanly", what, delta)
			}
		}
	}

	alt, err = trace.WithHeader(raw, header([]uint64{1 << 40, 1 << 40, 1 << 40}))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = trace.Decode(bytes.NewReader(alt))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header declaring 2^40 of everything decoded cleanly")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Errorf("a header declaring 2^40 of everything: %d bytes allocated on the way to the error", grew)
	}
}

// TestFCT4TruncationEveryBoundary regenerates the FCT4 stream's decompressed
// payload, truncates it at every byte offset (a superset of every section
// boundary), re-compresses the prefix and decodes it: every cut must produce
// a wrapped, position-bearing error — never a panic, never a silently short
// trace — whatever shape of reader delivers the bytes. The messages are
// pinned in testdata/fct4_truncation.golden (runs of cuts that fail alike
// share a line, the offset replaced by "<cut>"): section names and offsets
// are part of the format's contract, and the file changes only with the
// layout.
func TestFCT4TruncationEveryBoundary(t *testing.T) {
	tr := randomTrace(4, 60)
	raw := encode(t, tr)
	if string(raw[:4]) != trace.FormatMagic {
		t.Fatalf("magic = %q", raw[:4])
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw[4:]))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	runStart, runMsg := 0, ""
	endRun := func(next int) {
		if runMsg != "" {
			fmt.Fprintf(&got, "cuts %d-%d: %s\n", runStart, next-1, runMsg)
		}
		runStart = next
	}
	zw := gzip.NewWriter(nil)
	for cut := 0; cut < len(payload); cut++ {
		var short bytes.Buffer
		short.WriteString(trace.FormatMagic)
		zw.Reset(&short)
		if _, err := zw.Write(payload[:cut]); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		_, err := decodeShapes(t, short.Bytes())
		if err == nil {
			t.Fatalf("cut at %d/%d decoded cleanly", cut, len(payload))
		}
		at := fmt.Sprintf("decompressed offset %d:", cut)
		if !strings.Contains(err.Error(), at) {
			t.Fatalf("cut at %d: error does not place the truncation there: %v", cut, err)
		}
		if msg := strings.Replace(err.Error(), at, "decompressed offset <cut>:", 1); msg != runMsg {
			endRun(cut)
			runMsg = msg
		}
	}
	endRun(len(payload))

	const golden = "testdata/fct4_truncation.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("truncation errors differ from %s (-update rewrites it):\n%s", golden, got.String())
	}

	// Sanity: the untruncated payload still decodes.
	if _, err := decodeShapes(t, raw); err != nil {
		t.Fatalf("full stream: %v", err)
	}
}

// TestFCT2TruncationCompressed cuts the compressed byte stream itself (the
// on-disk failure mode: partial writes) at a spread of offsets.
func TestFCT2TruncationCompressed(t *testing.T) {
	tr := randomTrace(5, 80)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{0, 1, 3, 4, 5, 10, len(raw) / 2, len(raw) - 1} {
		if cut >= len(raw) {
			continue
		}
		_, err := decodeShapes(t, raw[:cut])
		if err == nil {
			t.Fatalf("compressed cut at %d/%d decoded cleanly", cut, len(raw))
		}
	}
}

// TestFCT4RejectsTrailingOrMissingData: nothing may follow the last column
// (a stray byte, or a second gzip member), and the tables must hold exactly
// what their counts say: a repeated symbol or stack node, a stack node whose
// parent comes after it, or a frame outside the symbol table is refused.
func TestFCT4RejectsTrailingOrMissingData(t *testing.T) {
	gzipped := func(parts ...[]byte) []byte {
		out := bytes.NewBufferString(trace.FormatMagic)
		for _, p := range parts {
			zw := gzip.NewWriter(out)
			zw.Write(p)
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return out.Bytes()
	}
	raw := encode(t, randomTrace(7, 30))
	zr, err := gzip.NewReader(bytes.NewReader(raw[len(trace.FormatMagic):]))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	end := fmt.Sprintf("fct4 end section at decompressed offset %d: data after the last record column", len(payload))
	for _, c := range []struct {
		name, want string
		raw        []byte
	}{
		{"a trailing byte", end, gzipped(append(payload[:len(payload):len(payload)], 0))},
		{"a second gzip member", end, gzipped(payload, []byte{0})},
		{"a repeated symbol", "symbol 2 repeats symbol 1", gzipped([]byte{2, 0, 0, 1, 'a', 1, 'a'})},
		{"the empty symbol", "symbol 1 repeats symbol 0", gzipped([]byte{1, 0, 0, 0})},
		{"a repeated stack node", "stack node 2 repeats node 1", gzipped([]byte{0, 2, 0, 0, 0, 0, 0})},
		{"a stack node ahead of its parent", "stack parent 1 out of range (last valid: 0)", gzipped([]byte{0, 1, 0, 1, 0})},
		{"a frame outside the symbols", "stack frame symbol 5 out of range (last valid: 0)", gzipped([]byte{0, 1, 0, 0, 5})},
	} {
		if _, err := decodeShapes(t, c.raw); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestSourceTruncationIsUnexpectedEOF: a stream cut mid-section drains to
// an error wrapping io.ErrUnexpectedEOF, never to a clean, short trace.
func TestSourceTruncationIsUnexpectedEOF(t *testing.T) {
	raw := encode(t, randomTrace(6, 50))
	zr, err := gzip.NewReader(bytes.NewReader(raw[4:]))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var short bytes.Buffer
	short.WriteString(trace.FormatMagic)
	zw := gzip.NewWriter(&short)
	zw.Write(payload[:len(payload)/2])
	zw.Close()

	src, err := trace.NewSource(bytes.NewReader(short.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := src.Drain()
	if err == nil {
		t.Fatalf("truncated stream drained to a clean trace of %d records", len(got.Records))
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncation error = %v, want io.ErrUnexpectedEOF in chain", err)
	}
}
