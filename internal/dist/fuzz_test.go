package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"
)

// frame is body behind its length prefix.
func frame(body string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// FuzzReadMessage: the socket is a trust boundary, and readMessage is where
// its bytes become a message. A length prefix over the frame bound is refused
// with nothing of the body read (so nothing allocated for it); whatever does
// decode consumed exactly the frame it declared, has a type, re-encodes with
// writeMessage and decodes back to the same message; everything else is an
// error, never a panic.
func FuzzReadMessage(f *testing.F) {
	for _, m := range wireFrames() {
		var buf bytes.Buffer
		if err := writeMessage(&buf, &m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(append(binary.BigEndian.AppendUint32(nil, maxFrame+1), "{}"...))
	f.Add(frame(`{"type": "heartbeat"}`)[:12])
	f.Add(frame("not JSON"))
	f.Add(frame(`{"lease": 7}`))
	f.Add(frame(`{"type": "result", "lease": 7, "results": [{"plan": {"crash_step": 9}, "verdict": "tolerated"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		consumed := func() int { return len(data) - src.Len() - br.Buffered() }
		var m message
		err := readMessage(br, &m)
		if len(data) >= 4 && binary.BigEndian.Uint32(data) > maxFrame {
			if err == nil || !strings.Contains(err.Error(), "exceeds") || consumed() != 4 {
				t.Fatalf("frame declaring %d bytes: err = %v after reading %d bytes, want a refusal after the prefix",
					binary.BigEndian.Uint32(data), err, consumed())
			}
			return
		}
		if err != nil {
			return
		}
		if want := 4 + int(binary.BigEndian.Uint32(data)); consumed() != want {
			t.Fatalf("decoded a frame of %d bytes by reading %d", want, consumed())
		}
		if m.Type == "" {
			t.Fatal("accepted a frame with no type")
		}
		var out bytes.Buffer
		if err := writeMessage(&out, &m); err != nil {
			t.Fatalf("decoded %s frame does not re-encode: %v", m.Type, err)
		}
		var again message
		if err := readMessage(bufio.NewReader(&out), &again); err != nil {
			t.Fatalf("re-encoded %s frame refused: %v", m.Type, err)
		}
		first, _ := json.Marshal(m)
		second, _ := json.Marshal(again)
		if !bytes.Equal(first, second) {
			t.Fatalf("frame changed across a write/read cycle:\n%s\n%s", first, second)
		}
	})
}
