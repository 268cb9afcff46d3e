package sim

import (
	"testing"
	"unsafe"
)

// TestCallRecordSizeClass pins the sizes behind an RPC's one allocation: a
// call record embeds its reply latch, two arguments and its handler thread,
// and a field that pushes it past the 704-byte allocation class (or a
// spawned Thread past 416) raises every workload's allocated bytes.
func TestCallRecordSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(callState{}); n > 704 {
		t.Errorf("callState is %d bytes, want at most 704 (its allocation class)", n)
	}
	if n := unsafe.Sizeof(Thread{}); n > 416 {
		t.Errorf("Thread is %d bytes, want at most 416 (its allocation class)", n)
	}
}
