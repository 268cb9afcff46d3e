//go:build !amd64 && !arm64

package sim

// callerPCs is callsite's PC source. This port keeps no frame-pointer chain,
// so the stack comes from runtime.Callers.
var callerPCs = portableCallers
