//go:build !poolpoison

package lockrank

import "sync"

// Mutex is a sync.Mutex of class C. Unchecked in this build: Lock and
// Unlock are sync.Mutex's own.
type Mutex[C Class] struct{ sync.Mutex }

// RWMutex is a sync.RWMutex of class C. Unchecked in this build.
type RWMutex[C Class] struct{ sync.RWMutex }
