package trace_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"fcatch/internal/trace"
)

// resolved is one record with its symbols and stack resolved to strings and
// the Sym and StackID fields of its Record zeroed, so records of traces
// whose tables assign different Syms compare equal when they say the same.
type resolved struct {
	trace.Record
	Machine, PID, Site, Res, Aux, Target string
	Stack                                []string
}

// semantic flattens a trace into its fully-resolved form (strings, not Syms)
// so traces from different codecs can be compared even though their symbol
// tables may assign different Syms.
type semantic struct {
	Records []resolved
}

func flatten(t *trace.Trace) semantic {
	var s semantic
	for _, r := range t.Records {
		d := resolved{
			Machine: t.Str(r.Machine), PID: t.Str(r.PID), Site: t.Str(r.Site),
			Res: t.Str(r.Res), Aux: t.Str(r.Aux), Target: t.Str(r.Target),
			Stack: t.StackLabels(r.Stack),
		}
		r.Machine, r.PID, r.Site, r.Res, r.Aux, r.Target, r.Stack = 0, 0, 0, 0, 0, 0, 0
		d.Record = r
		s.Records = append(s.Records, d)
	}
	return s
}

// randomTrace builds a deterministic pseudo-random trace exercising every
// field the codecs carry: symbols, stacks, taint/ctl sets, flags.
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
	return tr
}

// TestFormatsRoundTripEquivalent is the codec property test: a trace must
// round-trip through FCT4 to the same semantic content, through Decode and
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

// TestCompressedFCT4StillDecodes: the reader takes any DEFLATE block the
// gzip layer carries, not just the stored ones Encode writes. Every
// observation trace of the six workloads, encoded through a default-level
// deflater, decodes to the same tables, records and lists as its stored
// encoding — re-encoding either gives the same bytes.
func TestCompressedFCT4StillDecodes(t *testing.T) {
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
// a reader that trusted it would allocate gigabytes. The FCT2 stream is a
// whole empty trace in that layout: a hinted header, a meta section naming a
// crash and the end section. The FCT3 stream is an empty trace too: hints
// and the end section.
func retiredFormats(t testing.TB) []retiredFormat {
	gzipped := func(magic string, payload []byte) []byte {
		var b bytes.Buffer
		b.WriteString(magic)
		zw := gzip.NewWriter(&b)
		zw.Write(payload)
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	// syms, stacks, PIDs, the three meta fields, then the record count as a
	// uvarint.
	fct1 := gzipped("FCT1", binary.AppendUvarint([]byte{0, 0, 0, 0, 0, 0}, 1<<27))
	// flags 1, hints 1 1 0 0; meta (5): step 7, PID "a#1", the 0 slot; end (6): 0.
	fct2 := gzipped("FCT2", []byte{1, 1, 1, 0, 0, 5, 14, 3, 'a', '#', '1', 0, 6, 0})
	// hints 1 1 0; end (4): 0.
	fct3 := gzipped("FCT3", []byte{1, 1, 0, 4, 0})
	return []retiredFormat{
		{"fct1", fct1},
		{"fct2", fct2},
		{"fct3", fct3},
		{"bare gzip", []byte{0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff}},
		// The first 32 bytes of the gob fixture the package used to ship.
		{"gzipped gob", []byte{0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0x6c, 0x8f, 0x5f, 0x6b, 0x13, 0x41, 0x14, 0xc5, 0xef, 0x99, 0x99, 0xdd, 0xae, 0x31, 0x16, 0x14, 0x11, 0x11, 0x85, 0xa2, 0x7d, 0xe8}},
	}
}

// TestRetiredFormatsFailClosed: FCT4 is the only format. Streams in the
// retired FCT3, FCT2, FCT1 and gzipped-gob layouts are rejected on their
// first four bytes by every entry point, before anything they declare is
// believed.
func TestRetiredFormatsFailClosed(t *testing.T) {
	for _, f := range retiredFormats(t) {
		failsClosed(t, f.name, f.raw, "unrecognized trace format")
	}
}

// TestDecodeRejectsGarbage: no magic → a clear error.
func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := trace.Decode(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
}
