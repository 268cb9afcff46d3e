package trace_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fcatch/internal/trace"
)

// semantic flattens a trace into its fully-resolved form (strings, not Syms)
// so traces from different codecs can be compared even though their symbol
// tables may assign different Syms.
type semantic struct {
	PIDs       []string
	CrashStep  int64
	CrashedPID string
	Records    []trace.RecordData
}

func flatten(t *trace.Trace) semantic {
	s := semantic{
		PIDs:       t.PIDs,
		CrashStep:  t.CrashStep,
		CrashedPID: t.CrashedPID,
	}
	for i := range t.Records {
		s.Records = append(s.Records, t.Data(&t.Records[i]))
	}
	return s
}

// randomTrace builds a deterministic pseudo-random trace exercising every
// field the codecs carry: symbols, stacks, taint/ctl sets, flags, metadata.
func randomTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New()
	pids := []string{"node#1", "node#2", "worker#1"}
	sites := []string{"", "app/a.go:10", "app/a.go:20", "app/b.go:5"}
	ress := []string{"", "heap:node#1:Obj1.f", "gfs:/data/x", "cv:node#2:open/3"}
	auxs := []string{"", "ping", "create", "main"}
	stacks := []trace.StackID{trace.NoStack}
	for _, fr := range []string{"main", "rpc:ping", "scope"} {
		stacks = append(stacks, tr.PushFrame(stacks[len(stacks)-1], tr.Intern(fr)))
	}
	for _, p := range pids {
		tr.AddPID(p)
	}
	for i := 0; i < n; i++ {
		r := trace.Record{
			TS:      int64(i * 2),
			Kind:    trace.Kind(rng.Intn(int(trace.KRestart)) + 1),
			Machine: tr.Intern("m" + string(rune('1'+rng.Intn(2)))),
			PID:     tr.Intern(pids[rng.Intn(len(pids))]),
			Thread:  rng.Intn(4),
			Site:    tr.Intern(sites[rng.Intn(len(sites))]),
			Res:     tr.Intern(ress[rng.Intn(len(ress))]),
			Aux:     tr.Intern(auxs[rng.Intn(len(auxs))]),
			Target:  tr.Intern(pids[rng.Intn(len(pids))]),
			Stack:   stacks[rng.Intn(len(stacks))],
			Flags:   uint32(rng.Intn(8)),
		}
		if i > 0 {
			r.Frame = trace.OpID(rng.Intn(i) + 1)
			r.Src = trace.OpID(rng.Intn(i + 1))
			r.Causor = trace.OpID(rng.Intn(i + 1))
			for j := 0; j < rng.Intn(3); j++ {
				r.Taint = append(r.Taint, trace.OpID(rng.Intn(i)+1))
			}
			for j := 0; j < rng.Intn(3); j++ {
				r.Ctl = append(r.Ctl, trace.OpID(rng.Intn(i)+1))
			}
		}
		tr.Append(r)
	}
	tr.CrashStep = 42
	tr.CrashedPID = "node#1"
	return tr
}

// TestFormatsRoundTripEquivalent is the codec property test: a trace must
// round-trip through FCT2 to the same semantic content, through Decode and
// through a Source drained by its caller.
func TestFormatsRoundTripEquivalent(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		n := 200
		if seed == 6 {
			n = 6000 // a payload several decoder windows long
		}
		tr := randomTrace(seed, n)
		want := flatten(tr)

		var fct bytes.Buffer
		if err := tr.Encode(&fct); err != nil {
			t.Fatalf("seed %d: Encode: %v", seed, err)
		}
		if string(fct.Bytes()[:4]) != trace.FormatMagic {
			t.Fatalf("seed %d: encoded stream does not start with %q", seed, trace.FormatMagic)
		}
		decoded, err := decodeShapes(t, fct.Bytes())
		if err != nil {
			t.Fatalf("seed %d: Decode: %v", seed, err)
		}
		src, err := trace.NewSource(bytes.NewReader(fct.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: NewSource: %v", seed, err)
		}
		sourced, err := src.Drain()
		if err != nil {
			t.Fatalf("seed %d: Drain: %v", seed, err)
		}
		views := map[string]*trace.Trace{"decode": decoded, "source": sourced}
		for _, chunk := range []int{1, 2, 7} {
			if n > 200 {
				break
			}
			var small bytes.Buffer
			if err := trace.EncodeChunked(tr, &small, chunk); err != nil {
				t.Fatalf("seed %d: EncodeChunked(%d): %v", seed, chunk, err)
			}
			if views[fmt.Sprintf("chunks of %d", chunk)], err = trace.Decode(&small); err != nil {
				t.Fatalf("seed %d: decoding chunks of %d: %v", seed, chunk, err)
			}
		}
		for name, got := range views {
			if g := flatten(got); !reflect.DeepEqual(g, want) {
				t.Errorf("seed %d: %s round trip diverged", seed, name)
			}
		}
	}
}

// encodeDeflated encodes tr as every build before stored blocks did: through
// a default-level gzip writer, so the stream is Huffman-coded.
func encodeDeflated(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	trace.SetDeflaterSource(func() *gzip.Writer { return gzip.NewWriter(nil) })
	defer trace.SetDeflaterSource(nil)
	return encode(t, tr)
}

// deflateBlockTypes walks the DEFLATE stream inside an encoded trace and
// returns the BTYPE of each block (0 stored, 1 fixed Huffman, 2 dynamic
// Huffman), up to the final block or the first one that is not stored —
// only a stored block's length can be read without decoding it.
func deflateBlockTypes(t *testing.T, raw []byte) []byte {
	t.Helper()
	gz := raw[len(trace.FormatMagic):]
	// A gzip header with no optional fields is 10 bytes; FLG (byte 3) says
	// whether any follow.
	if len(gz) < 10 || gz[0] != 0x1f || gz[1] != 0x8b || gz[3] != 0 {
		t.Fatalf("not a bare gzip member: % x", gz[:min(len(gz), 10)])
	}
	var types []byte
	for p := 10; ; {
		if p+5 > len(gz) {
			t.Fatalf("DEFLATE stream cut at byte %d", p)
		}
		final, btype := gz[p]&1, gz[p]>>1&3
		types = append(types, btype)
		if btype != 0 || final == 1 {
			return types
		}
		// The rest of a stored block's header byte is padding; LEN and its
		// complement NLEN follow, then LEN bytes of data.
		n := binary.LittleEndian.Uint16(gz[p+1:])
		if ^n != binary.LittleEndian.Uint16(gz[p+3:]) {
			t.Fatalf("stored block at byte %d: NLEN does not complement LEN %d", p, n)
		}
		p += 5 + int(n)
	}
}

// TestEncodeWritesStoredBlocks: Encode keeps the gzip framing but stores
// every DEFLATE block, the column bytes verbatim. A default-level stream, as
// older builds wrote, opens with a Huffman block, so the check tells the two
// apart.
func TestEncodeWritesStoredBlocks(t *testing.T) {
	tr := randomTrace(6, 6000) // a payload of several 64 KB stored blocks
	types := deflateBlockTypes(t, encode(t, tr))
	if len(types) < 2 {
		t.Fatalf("block types %v: want several stored blocks", types)
	}
	for i, bt := range types {
		if bt != 0 {
			t.Fatalf("block %d has BTYPE %d, want 0 (stored)", i, bt)
		}
	}
	if bt := deflateBlockTypes(t, encodeDeflated(t, tr))[0]; bt == 0 {
		t.Fatal("a default-level stream opens with a stored block: the check cannot tell it from Encode's")
	}
}

// TestCompressedFCT2StillDecodes: the reader takes what earlier builds
// wrote. Every observation trace of the six workloads, encoded through a
// default-level deflater, decodes to the same tables, records, lists and
// metadata as its stored encoding — re-encoding either gives the same bytes.
func TestCompressedFCT2StillDecodes(t *testing.T) {
	for name, tr := range observedTraces(t) {
		stored, deflated := encode(t, tr), encodeDeflated(t, tr)
		if len(deflated) >= len(stored) {
			t.Fatalf("%s: the deflated stream (%d bytes) is no smaller than the stored one (%d)", name, len(deflated), len(stored))
		}
		want, err := trace.Decode(bytes.NewReader(stored))
		if err != nil {
			t.Fatalf("%s stored: %v", name, err)
		}
		got, err := trace.Decode(bytes.NewReader(deflated))
		if err != nil {
			t.Fatalf("%s deflated: %v", name, err)
		}
		if !reflect.DeepEqual(got.Records, want.Records) || !reflect.DeepEqual(flatten(got), flatten(want)) ||
			!bytes.Equal(encode(t, got), stored) {
			t.Errorf("%s: the deflated stream decoded to a different trace than the stored one", name)
		}
	}
}

type retiredFormat struct {
	name string
	raw  []byte
}

// retiredFormats are the leading bytes of the trace formats this package no
// longer reads. The FCT1 stream declares 2^27 records after empty tables, so
// a reader that trusted it would allocate gigabytes.
func retiredFormats(t testing.TB) []retiredFormat {
	var fct1 bytes.Buffer
	fct1.WriteString("FCT1")
	zw := gzip.NewWriter(&fct1)
	// syms, stacks, PIDs, the three meta fields, then the record count as a
	// uvarint.
	zw.Write([]byte{0, 0, 0, 0, 0, 0})
	zw.Write(binary.AppendUvarint(nil, 1<<27))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return []retiredFormat{
		{"fct1", fct1.Bytes()},
		{"bare gzip", []byte{0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff}},
		// The first 32 bytes of the gob fixture the package used to ship.
		{"gzipped gob", []byte{0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0x6c, 0x8f, 0x5f, 0x6b, 0x13, 0x41, 0x14, 0xc5, 0xef, 0x99, 0x99, 0xdd, 0xae, 0x31, 0x16, 0x14, 0x11, 0x11, 0x85, 0xa2, 0x7d, 0xe8}},
	}
}

// TestRetiredFormatsFailClosed: FCT2 is the only format. Streams in the
// retired FCT1 and gzipped-gob layouts are rejected on their first four
// bytes by every entry point, before anything they declare is believed.
func TestRetiredFormatsFailClosed(t *testing.T) {
	const want = "unrecognized trace format"
	for _, f := range retiredFormats(t) {
		name, raw := f.name, f.raw
		path := filepath.Join(t.TempDir(), "retired.trace")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		entries := map[string]func() error{
			"Decode":    func() error { _, err := trace.Decode(bytes.NewReader(raw)); return err },
			"NewSource": func() error { _, err := trace.NewSource(bytes.NewReader(raw)); return err },
			"Load":      func() error { _, err := trace.Load(path); return err },
		}
		for entry, call := range entries {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := call()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s(%s): err = %v, want one containing %q", entry, name, err, want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("%s(%s): allocated %d bytes rejecting the stream", entry, name, grew)
			}
		}
	}
}

// TestDecodeRejectsGarbage: no magic → a clear error.
func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := trace.Decode(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
}
