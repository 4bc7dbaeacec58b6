//go:build poolpoison && !amd64

package lockrank

import (
	"runtime"
	"sync"
)

// stackBufs recycles the buffers gid reads the stack header into, so a
// checked Lock allocates nothing and the zero-alloc tests hold in this
// build too.
var stackBufs = sync.Pool{New: func() any { return new([64]byte) }}

// gid identifies the calling goroutine by its id, parsed from the header
// line "goroutine N [...]" that runtime.Stack writes first. Portable but
// slow: runtime.Stack walks the whole stack, about 1.4 µs per frame.
func gid() uintptr {
	b := stackBufs.Get().(*[64]byte)
	n := runtime.Stack(b[:], false)
	var id uintptr
	for _, c := range b[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	stackBufs.Put(b)
	return id
}
