package trace_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fcatch/internal/hb"
	"fcatch/internal/trace"
)

// danglingRefs are well-formed FCT4 streams — right magic, intact gzip, every
// section in place — whose second record points outside the tables or past
// the end of the trace. The index and the fault-space fold use these fields
// as dense table indices on whatever the decoder returns, so the decoder is
// where they must be stopped.
func danglingRefs(t testing.TB) map[string][]byte {
	poison := map[string]func(r *trace.Record){
		"kind":      func(r *trace.Record) { r.Kind = 200 },
		"res":       func(r *trace.Record) { r.Res = 1 << 30 },
		"site":      func(r *trace.Record) { r.Site = 1 << 31 },
		"machine":   func(r *trace.Record) { r.Machine = 99 },
		"pid":       func(r *trace.Record) { r.PID = 99 },
		"aux":       func(r *trace.Record) { r.Aux = 99 },
		"target":    func(r *trace.Record) { r.Target = 99 },
		"stack":     func(r *trace.Record) { r.Stack = 99 },
		"frame":     func(r *trace.Record) { r.Frame = 3 },
		"src":       func(r *trace.Record) { r.Src = 1 << 40 },
		"causor":    func(r *trace.Record) { r.Causor = 99 },
		"taint id":  func(r *trace.Record) { r.Taint = []trace.OpID{1, 99} },
		"ctl id":    func(r *trace.Record) { r.Ctl = []trace.OpID{3} },
		"taint < 0": func(r *trace.Record) { r.Taint = []trace.OpID{-1} },
	}
	out := map[string][]byte{}
	for name, corrupt := range poison {
		tr := trace.New()
		start := tr.Append(trace.Record{Kind: trace.KThreadStart, PID: tr.Intern("p#1"), Thread: 1})
		tr.Append(trace.Record{
			Kind: trace.KHeapWrite, PID: tr.Intern("p#1"), Thread: 1, Frame: start,
			Site: tr.Intern("app/a.go:1"), Res: tr.Intern("heap:p#1:o.f"),
			Stack: tr.PushFrame(trace.NoStack, tr.Intern("main")),
		})
		corrupt(&tr.Records[1])
		out[name] = encode(t, tr)
	}
	return out
}

// failsClosed requires every entry point a saved trace can come in through
// to answer raw with an error containing each of wants — no panic in an
// index, no table sized by a hostile value — and to allocate under 1 MiB on
// the way.
func failsClosed(t *testing.T, name string, raw []byte, wants ...string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hostile.trace")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	entries := map[string]func() error{
		"Decode": func() error { _, err := trace.Decode(bytes.NewReader(raw)); return err },
		"NewSource+Drain": func() error {
			src, err := trace.NewSource(bytes.NewReader(raw))
			if err != nil {
				return err
			}
			_, err = src.Drain()
			return err
		},
		"Load": func() error { _, err := trace.Load(path); return err },
		"hb.NewFromSource": func() error {
			src, err := trace.NewSource(bytes.NewReader(raw))
			if err != nil {
				return err
			}
			_, err = hb.NewFromSource(src)
			return err
		},
	}
	for entry, call := range entries {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := call()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s accepted %s", entry, name)
			continue
		}
		for _, want := range wants {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s, %s: error %q lacks %q", entry, name, err, want)
			}
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s, %s: allocated %d bytes on the way to the error", entry, name, grew)
		}
	}
}

// TestDecodeRejectsDanglingRefs: a record with a dangling reference is
// refused with a positioned decode error.
func TestDecodeRejectsDanglingRefs(t *testing.T) {
	for field, raw := range danglingRefs(t) {
		failsClosed(t, "a dangling "+field, raw, "fct4 records section at decompressed offset", "out of range")
	}
}

// TestHostileCountsFailClosed: a stream whose counts declare 2^40 records,
// symbols or stack nodes and that carries none is refused where they should
// start. The records cost no more than the decoder's step ahead of the TS
// values it read, and each table is sized only once its entries are read —
// believed, the counts ask for 150 TB.
func TestHostileCountsFailClosed(t *testing.T) {
	for _, c := range []struct {
		name               string
		syms, stacks, recs uint64
		section            string
	}{
		{"2^40 records", 0, 0, 1 << 40, "records"},
		{"2^40 symbols and stack nodes", 1 << 40, 1 << 40, 0, "symbols"},
		{"2^40 stack nodes", 0, 1 << 40, 0, "stacks"},
	} {
		hdr := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, c.syms), c.stacks), c.recs)
		raw, err := trace.WithHeader(encode(t, trace.New()), hdr)
		if err != nil {
			t.Fatal(err)
		}
		failsClosed(t, c.name, raw,
			fmt.Sprintf("fct4 %s section at decompressed offset %d: unexpected EOF", c.section, len(hdr)))
	}
}
