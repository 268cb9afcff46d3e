package trace_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
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

// collectWindows subscribes to a Writer and copies every delivered window
// (copying matters: non-retaining writers reuse the window slice).
type collector struct {
	wins [][]trace.Record
}

func (c *collector) fn(t *trace.Trace, recs []trace.Record) {
	c.wins = append(c.wins, append([]trace.Record(nil), recs...))
}

func (c *collector) flat() []trace.Record {
	var out []trace.Record
	for _, w := range c.wins {
		out = append(out, w...)
	}
	return out
}

func TestWriterRetainingBatches(t *testing.T) {
	tr := trace.New()
	w := trace.NewWriter(tr, 3)
	var c collector
	w.Subscribe(c.fn)

	for i := 0; i < 7; i++ {
		id := w.Append(trace.Record{TS: int64(i), Kind: trace.KHeapRead, Site: tr.Intern(fmt.Sprintf("s%d", i))})
		if id != trace.OpID(i+1) {
			t.Fatalf("Append %d: id %d, want %d", i, id, i+1)
		}
	}
	w.Flush()

	if got := len(tr.Records); got != 7 {
		t.Fatalf("retaining writer kept %d records, want 7", got)
	}
	if w.Len() != 7 {
		t.Fatalf("Len = %d, want 7", w.Len())
	}
	sizes := []int{}
	for _, win := range c.wins {
		sizes = append(sizes, len(win))
	}
	if !reflect.DeepEqual(sizes, []int{3, 3, 1}) {
		t.Fatalf("window sizes %v, want [3 3 1]", sizes)
	}
	if !reflect.DeepEqual(c.flat(), tr.Records) {
		t.Fatal("windows do not reassemble to the trace's records")
	}
	w.Flush() // no pending records: must not deliver an empty window
	if len(c.wins) != 3 {
		t.Fatalf("idempotent Flush delivered an extra window (%d windows)", len(c.wins))
	}
}

func TestWriterDiscardStreamsWithoutRetaining(t *testing.T) {
	tr := trace.New()
	w := trace.NewWriter(tr, 4)
	w.SetRetain(false)
	var c collector
	w.Subscribe(c.fn)

	for i := 0; i < 10; i++ {
		id := w.Append(trace.Record{TS: int64(i), Kind: trace.KHeapWrite, Res: tr.Intern("r")})
		if id != trace.OpID(i+1) {
			t.Fatalf("Append %d: id %d, want %d", i, id, i+1)
		}
	}
	w.Flush()

	if len(tr.Records) != 0 {
		t.Fatalf("discarding writer retained %d records", len(tr.Records))
	}
	if w.Len() != 10 {
		t.Fatalf("Len = %d, want 10", w.Len())
	}
	flat := c.flat()
	if len(flat) != 10 {
		t.Fatalf("subscribers saw %d records, want 10", len(flat))
	}
	for i, r := range flat {
		if r.ID != trace.OpID(i+1) || r.TS != int64(i) {
			t.Fatalf("record %d: ID=%d TS=%d, want ID=%d TS=%d", i, r.ID, r.TS, i+1, i)
		}
	}
}

// TestWriterDiscardWindowIsFixed: a non-retaining writer owns one window for
// its whole life — after construction, appending allocates nothing, however
// many records stream through — and the Flush contract of the retaining path
// (no empty window, idempotent) holds for it too.
func TestWriterDiscardWindowIsFixed(t *testing.T) {
	tr := trace.New()
	w := trace.NewWriter(tr, 0)
	w.SetRetain(false)
	var windows, records int
	w.Subscribe(func(_ *trace.Trace, recs []trace.Record) {
		windows++
		records += len(recs)
	})
	w.Flush() // never-filled window: nothing to deliver
	if windows != 0 {
		t.Fatalf("Flush on an empty writer delivered %d windows", windows)
	}

	res := tr.Intern("r")
	const appends = 10_000
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < appends; i++ {
			w.Append(trace.Record{Kind: trace.KHeapWrite, Res: res})
		}
	})
	if allocs != 0 {
		t.Fatalf("%d appends to a non-retaining writer allocated %.0f times, want 0", appends, allocs)
	}

	w.Append(trace.Record{Kind: trace.KHeapWrite, Res: res}) // leave a partial window
	before := windows
	w.Flush()
	w.Flush()
	if windows != before+1 {
		t.Fatalf("two Flushes of one partial window delivered %d windows, want 1", windows-before)
	}
	if records != w.Len() || len(tr.Records) != 0 {
		t.Fatalf("subscriber saw %d of %d records; trace retained %d", records, w.Len(), len(tr.Records))
	}
}

func TestSourceOfDrainsToSameTrace(t *testing.T) {
	tr := randomTrace(3, 150)
	src := trace.SourceOf(tr, 16)

	h, ok := src.(trace.Hinter)
	if !ok {
		t.Fatal("SourceOf does not implement Hinter")
	}
	hints, known := h.SizeHints()
	if !known || hints.Records != 150 || hints.Syms != tr.NumSyms() ||
		hints.Stacks != tr.NumStacks() || hints.PIDs != len(tr.PIDs) {
		t.Fatalf("hints = %+v (known=%v), want exact totals", hints, known)
	}

	var n, wins int
	for {
		win, err := src.Next()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n += len(win)
		wins++
	}
	if n != 150 {
		t.Fatalf("windows carried %d records, want 150", n)
	}
	if want := (150 + 15) / 16; wins != want {
		t.Fatalf("%d windows, want %d", wins, want)
	}

	got, err := trace.Drain(trace.SourceOf(tr, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got != tr {
		t.Fatal("Drain over SourceOf should return the identical trace")
	}
}

// TestStreamEncoderIncremental drives the full streaming write path: a
// Writer with a StreamEncoder subscriber, new symbols interned between
// windows (forcing multiple incremental table sections), and the result
// decoded back through the streaming source.
func TestStreamEncoderIncremental(t *testing.T) {
	dst := trace.New()
	w := trace.NewWriter(dst, 5)
	var buf bytes.Buffer
	enc, err := trace.NewStreamEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.Subscribe(enc.Window)

	stack := dst.PushFrame(trace.NoStack, dst.Intern("main"))
	for i := 0; i < 33; i++ {
		// A fresh site every record: every flushed window is preceded by a
		// new symbol section.
		r := trace.Record{
			TS:   int64(2 * i),
			Kind: trace.KHeapRead,
			PID:  dst.Intern("node#1"),
			Site: dst.Intern(fmt.Sprintf("app/f.go:%d", i)),
			Res:  dst.Intern("heap:node#1:X.f"),
		}
		if i%2 == 0 {
			r.Stack = stack
		}
		if i > 0 {
			r.Causor = trace.OpID(i)
		}
		w.Append(r)
		if i == 10 {
			dst.AddPID("node#1") // PID section must appear mid-stream too
		}
	}
	dst.CrashStep = 7
	dst.CrashedPID = "node#1"
	dst.BaselineNanos = 99
	w.Flush()
	if err := enc.Close(dst); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), trace.FormatMagic) {
		t.Fatalf("stream does not start with %q", trace.FormatMagic)
	}

	got, err := decodeShapes(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flatten(got), flatten(dst)) {
		t.Fatal("incremental FCT2 stream did not round-trip")
	}
}

func TestFCT2SourceNonRetaining(t *testing.T) {
	tr := randomTrace(7, 300)
	var buf bytes.Buffer
	if err := trace.EncodeStream(trace.SourceOf(tr, 11), &buf); err != nil {
		t.Fatal(err)
	}

	for _, shape := range readerShapes {
		src, err := trace.NewSource(shape.wrap(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		rs, ok := src.(interface{ SetRetain(bool) })
		if !ok {
			t.Fatal("FCT2 source does not support SetRetain")
		}
		rs.SetRetain(false)

		// The resolved records are kept past their windows: nothing in them
		// (the Taint/Ctl lists in particular) may be reused by a later window.
		var got []trace.RecordData
		st := src.Trace()
		for {
			win, err := src.Next()
			if err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			for i := range win {
				got = append(got, st.Data(&win[i]))
			}
		}
		if len(st.Records) != 0 {
			t.Fatalf("%s reader: non-retaining source accumulated %d records", shape.name, len(st.Records))
		}
		want := flatten(tr)
		if !reflect.DeepEqual(got, want.Records) {
			t.Fatalf("%s reader: streamed records diverged from the encoded trace", shape.name)
		}
		// Run metadata must be complete once the stream ends.
		if st.CrashStep != tr.CrashStep || st.CrashedPID != tr.CrashedPID || st.BaselineNanos != tr.BaselineNanos {
			t.Fatalf("metadata = (%d, %q, %d), want (%d, %q, %d)",
				st.CrashStep, st.CrashedPID, st.BaselineNanos, tr.CrashStep, tr.CrashedPID, tr.BaselineNanos)
		}
	}
}

func TestFCT2SourceHints(t *testing.T) {
	tr := randomTrace(9, 120)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	h, ok := src.(trace.Hinter)
	if !ok {
		t.Fatal("FCT2 source does not implement Hinter")
	}
	hints, known := h.SizeHints()
	if !known {
		t.Fatal("Encode output should carry size hints")
	}
	want := trace.SizeHints{Syms: tr.NumSyms(), Stacks: tr.NumStacks(), PIDs: len(tr.PIDs), Records: len(tr.Records)}
	if hints != want {
		t.Fatalf("hints = %+v, want %+v", hints, want)
	}
}

// TestFCT2TruncationEveryBoundary regenerates the FCT2 stream's decompressed
// payload, truncates it at every byte offset (a superset of every section
// boundary), re-compresses the prefix and decodes it: every cut must produce
// a wrapped, position-bearing error — never a panic, never a silently short
// trace — whatever shape of reader delivers the bytes. The messages are
// pinned in testdata/fct2_truncation.golden (runs of cuts that fail alike
// share a line, the offset replaced by "<cut>"), which was written by the
// bufio-based decoder this one replaced: section names, offsets and record
// counts are part of the format's contract.
func TestFCT2TruncationEveryBoundary(t *testing.T) {
	tr := randomTrace(4, 60)
	var buf bytes.Buffer
	// Small windows: the payload interleaves table sections and record
	// chunks, so cuts land in every section kind.
	if err := trace.EncodeStream(trace.SourceOf(tr, 13), &buf); err != nil {
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
	var buf bytes.Buffer
	enc, err := trace.NewStreamEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	enc.Window(dst, []trace.Record{{ID: 1, TS: 1, Kind: trace.KHeapRead}})
	// Close with a different trace so the totals disagree... the encoder
	// counts windows itself, so instead corrupt the payload: rewrite the
	// final end-count byte.
	if err := enc.Close(dst); err != nil {
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
	zw.Write([]byte{0x00, 0x3f}) // header flags=0, then tag 63
	zw.Close()
	_, err = decodeShapes(t, bad2.Bytes())
	if err == nil || !strings.Contains(err.Error(), "unknown section tag") {
		t.Fatalf("unknown tag not rejected: %v", err)
	}
}

// TestSourceErrorIsSticky: after a decode error, further Next calls return
// the same error instead of silently resuming mid-stream.
func TestSourceErrorIsSticky(t *testing.T) {
	tr := randomTrace(6, 50)
	var buf bytes.Buffer
	if err := trace.EncodeStream(trace.SourceOf(tr, 7), &buf); err != nil {
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
	defer src.Close()
	var firstErr error
	for firstErr == nil {
		_, firstErr = src.Next()
	}
	if firstErr == io.EOF {
		t.Fatal("truncated stream drained to clean EOF")
	}
	if !errors.Is(firstErr, io.ErrUnexpectedEOF) {
		t.Fatalf("truncation error = %v, want io.ErrUnexpectedEOF in chain", firstErr)
	}
	if _, err := src.Next(); err != firstErr {
		t.Fatalf("error not sticky: %v then %v", firstErr, err)
	}
}
