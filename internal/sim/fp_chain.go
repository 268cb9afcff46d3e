//go:build amd64 || arm64

package sim

import "unsafe"

// callerPCs is callsite's PC source. amd64 and arm64 are the ports where Go
// maintains a frame-pointer chain, so there the stack is read straight off it
// instead of being unwound through the pc-value tables.
var callerPCs = fpCallers

// getfp returns its caller's frame pointer (fp_amd64.s, fp_arm64.s).
func getfp() unsafe.Pointer

// fpCallers fills pcs with the physical return addresses of the stack above
// callsite, innermost first — the shape of the runtime's own fpTracebackPCs.
// A frame pointer addresses the caller's saved frame pointer, and the return
// address sits one word above it; the chain ends at nil in the goroutine's
// entry frame. The pointer stays an unsafe.Pointer throughout, so the runtime
// keeps it valid if the stack moves and vet/checkptr accept the arithmetic.
//
// It must stay a real frame (callsite calls it through callerPCs): its own
// saved frame pointer is callsite's, whose return address is the first PC.
//
//go:noinline
func fpCallers(pcs []uintptr) int {
	fp := *(*unsafe.Pointer)(getfp())
	n := 0
	for n < len(pcs) && fp != nil {
		pcs[n] = *(*uintptr)(unsafe.Add(fp, unsafe.Sizeof(uintptr(0))))
		fp = *(*unsafe.Pointer)(fp)
		n++
	}
	return n
}
