//go:build poolpoison && amd64

package lockrank

// gid identifies the calling goroutine by its runtime g pointer, read from
// the g register (gid_amd64.s) in a few nanoseconds. A g is reused only
// after its goroutine exits, and a goroutine that exits holding a lock has
// leaked that lock already.
func gid() uintptr
