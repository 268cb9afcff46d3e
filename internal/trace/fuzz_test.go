package trace_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fcatch/internal/trace"
)

// FuzzDecode throws arbitrary bytes at the decoder. The contract under
// fuzzing: never panic, never hang, and any stream that decodes cleanly is
// internally consistent — it indexes (BuildIndex trusts every table index and
// op reference the decoder let through) and it re-encodes.
func FuzzDecode(f *testing.F) {
	// Seed with valid streams, stored and deflated, streams whose records
	// point outside the tables, the retired formats' leading bytes, and
	// garbage.
	var fct4 bytes.Buffer
	if err := randomTrace(1, 40).Encode(&fct4); err != nil {
		f.Fatal(err)
	}
	f.Add(fct4.Bytes())
	// The same stream behind a header whose counts lie: one symbol, one stack
	// node and 2^40 records.
	lying, err := trace.WithHeader(fct4.Bytes(), binary.AppendUvarint([]byte{1, 1}, 1<<40))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(lying)
	// The same trace Huffman-coded, as builds before stored blocks wrote it,
	// so fuzzing still reaches the inflater's block decoding.
	f.Add(encodeDeflated(f, randomTrace(1, 40)))
	// Exactly four bytes: the magic peek succeeds with nothing behind it.
	f.Add([]byte(trace.FormatMagic))
	f.Add([]byte("FCT3"))
	f.Add([]byte("FCT2"))
	f.Add([]byte("FCT1"))
	f.Add([]byte("not a trace"))
	for _, r := range retiredFormats(f) {
		f.Add(r.raw)
	}
	for _, raw := range danglingRefs(f) {
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		trace.BuildIndex(got)
		var out bytes.Buffer
		if err := got.Encode(&out); err != nil {
			t.Fatalf("decoded trace fails to re-encode: %v", err)
		}
	})
}
