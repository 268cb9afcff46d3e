package trace

import (
	"compress/gzip"
	"sync"
	"sync/atomic"
)

// CountDecodeStates makes the decode pool count the states it constructs, so
// a test can tell a decode that recycled a state from one that made its own.
func CountDecodeStates() (made func() int64, restore func()) {
	var n atomic.Int64
	old := decodePool.New
	decodePool.New = func() any {
		n.Add(1)
		return old()
	}
	return n.Load, func() { decodePool.New = old }
}

// SetDeflaterSource replaces the deflater pool with an empty one that makes
// its writers with mk — the next encoder gets exactly mk's writer. nil puts
// an empty production pool back.
func SetDeflaterSource(mk func() *gzip.Writer) {
	if mk == nil {
		mk = func() *gzip.Writer { return gzip.NewWriter(nil) }
	}
	deflaterPool = sync.Pool{New: func() any { return mk() }}
}
