package trace_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"fcatch/internal/hb"
	"fcatch/internal/trace"
)

// danglingRefs are well-formed FCT2 streams — right magic, intact gzip, every
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
		tr.AddPID("p#1")
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

// TestDecodeRejectsDanglingRefs: every entry point a saved trace can come in
// through answers a dangling reference with a positioned decode error — no
// panic in an index, no table sized by the hostile value.
func TestDecodeRejectsDanglingRefs(t *testing.T) {
	entries := map[string]func(raw []byte) error{
		"trace.Decode": func(raw []byte) error {
			_, err := trace.Decode(bytes.NewReader(raw))
			return err
		},
		"hb.NewFromSource": func(raw []byte) error {
			src, err := trace.NewSource(bytes.NewReader(raw))
			if err != nil {
				return err
			}
			_, err = hb.NewFromSource(src)
			return err
		},
	}
	for field, raw := range danglingRefs(t) {
		for entry, call := range entries {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := call(raw)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s accepted a record with a dangling %s", entry, field)
				continue
			}
			for _, want := range []string{"fct2 records section at decompressed offset", "(0 records decoded)", "out of range"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s, dangling %s: error %q lacks %q", entry, field, err, want)
				}
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("%s, dangling %s: allocated %d bytes on the way to the error", entry, field, grew)
			}
		}
	}
}
