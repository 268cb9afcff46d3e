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

// TestFCT2SourceHints: the header's size hints are advice. A stream whose
// hints all say 0, and one whose header declares 2^40 of everything, decode
// to the trace the true hints give, and what the decoder pre-sizes on the
// hostile header's word is bounded by its clamp (2^18 entries per table,
// some 26 MiB of empty tables) — believed, the header asks for terabytes.
func TestFCT2SourceHints(t *testing.T) {
	tr := randomTrace(9, 120)
	raw := encode(t, tr)
	var hugeHints []byte // 2^40 symbols, stacks and records
	for i := 0; i < 3; i++ {
		hugeHints = binary.AppendUvarint(hugeHints, 1<<40)
	}
	for name, hdr := range map[string][]byte{"zero hints": {0, 0, 0}, "2^40 of everything": hugeHints} {
		alt, err := trace.WithHeader(raw, hdr)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		src, err := trace.NewSource(bytes.NewReader(alt))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s header: %v", name, err)
		}
		src.Close()
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
			t.Errorf("%s header: %d bytes allocated before the first chunk", name, grew)
		}
		got, err := decodeShapes(t, alt)
		if err != nil {
			t.Fatalf("%s header: %v", name, err)
		}
		if !reflect.DeepEqual(flatten(got), flatten(tr)) {
			t.Errorf("%s header: decoded a different trace", name)
		}
	}
}

// TestFCT2TruncationEveryBoundary regenerates the FCT3 stream's decompressed
// payload, truncates it at every byte offset (a superset of every section
// boundary), re-compresses the prefix and decodes it: every cut must produce
// a wrapped, position-bearing error — never a panic, never a silently short
// trace — whatever shape of reader delivers the bytes. The messages are
// pinned in testdata/fct2_truncation.golden (runs of cuts that fail alike
// share a line, the offset replaced by "<cut>"): section names, offsets and
// record counts are part of the format's contract, and the file changes
// only with the layout.
func TestFCT2TruncationEveryBoundary(t *testing.T) {
	tr := randomTrace(4, 60)
	var buf bytes.Buffer
	// Small chunks, so cuts land in and between many of them.
	if err := trace.EncodeChunked(tr, &buf, 13); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
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
		at := fmt.Sprintf("decompressed offset %d ", cut)
		if !strings.Contains(err.Error(), at) {
			t.Fatalf("cut at %d: error does not place the truncation there: %v", cut, err)
		}
		if msg := strings.Replace(err.Error(), at, "decompressed offset <cut> ", 1); msg != runMsg {
			endRun(cut)
			runMsg = msg
		}
	}
	endRun(len(payload))

	const golden = "testdata/fct2_truncation.golden"
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

// TestFCT2RejectsCorruptSections flips declared counts and tags into
// hostile values and checks for clean errors.
func TestFCT2RejectsCorruptSections(t *testing.T) {
	// An end section that under-declares the record count.
	dst := trace.New()
	dst.Append(trace.Record{TS: 1, Kind: trace.KHeapRead})
	// The encoder writes the count it encoded, so corrupt the payload:
	// rewrite the final end-count byte.
	raw := encode(t, dst)
	zr, err := gzip.NewReader(bytes.NewReader(raw[4:]))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	payload[len(payload)-1] ^= 0x01 // end-section total: 1 -> 0
	var bad bytes.Buffer
	bad.WriteString(trace.FormatMagic)
	zw := gzip.NewWriter(&bad)
	zw.Write(payload)
	zw.Close()
	_, err = decodeShapes(t, bad.Bytes())
	if err == nil || !strings.Contains(err.Error(), "declares") {
		t.Fatalf("mismatched end count not rejected: %v", err)
	}

	// An unknown section tag.
	var bad2 bytes.Buffer
	bad2.WriteString(trace.FormatMagic)
	zw = gzip.NewWriter(&bad2)
	zw.Write([]byte{0, 0, 0, 0x3f}) // three zero hints, then tag 63
	zw.Close()
	_, err = decodeShapes(t, bad2.Bytes())
	if err == nil || !strings.Contains(err.Error(), "unknown section tag") {
		t.Fatalf("unknown tag not rejected: %v", err)
	}
}

// TestSourceTruncationIsUnexpectedEOF: a stream cut mid-section drains to
// an error wrapping io.ErrUnexpectedEOF, never to a clean, short trace.
func TestSourceTruncationIsUnexpectedEOF(t *testing.T) {
	tr := randomTrace(6, 50)
	var buf bytes.Buffer
	if err := trace.EncodeChunked(tr, &buf, 7); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
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
