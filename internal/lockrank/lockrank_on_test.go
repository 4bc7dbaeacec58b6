//go:build poolpoison

package lockrank

import (
	"strings"
	"testing"
)

// mustPanic runs f and returns its panic message, failing the test when f
// returns normally.
func mustPanic(t *testing.T, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			s, _ := recover().(string)
			msg = s
		}()
		f()
	}()
	if msg == "" {
		t.Fatal("no lockrank panic")
	}
	return msg
}

func TestOutOfRankAcquisitionPanicsNamingBothClasses(t *testing.T) {
	var peers RWMutex[PeerShard]
	var group Mutex[Netgroup]
	group.Lock()
	msg := mustPanic(t, peers.RLock)
	group.Unlock()
	if want := "acquiring reputation peer shard while holding reputation netgroup"; !strings.Contains(msg, want) {
		t.Errorf("panic %q, want it to contain %q", msg, want)
	}
	peers.RLock() // the failed acquisition left nothing behind
	peers.RUnlock()
}

func TestSameClassPanics(t *testing.T) {
	a, b := new(RWMutex[TrackerShard]), new(RWMutex[TrackerShard])
	a.Lock()
	msg := mustPanic(t, b.Lock)
	a.Unlock()
	if want := "acquiring core tracker shard while holding core tracker shard"; !strings.Contains(msg, want) {
		t.Errorf("panic %q, want it to contain %q", msg, want)
	}
}

// TestHeldSetsArePerGoroutine: a lock another goroutine holds does not
// count against this one's acquisitions.
func TestHeldSetsArePerGoroutine(t *testing.T) {
	var store Mutex[BanStore]
	var shard RWMutex[TrackerShard]
	locked, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		store.Lock()
		close(locked)
		<-release
		store.Unlock()
	}()
	<-locked
	shard.Lock()
	shard.Unlock()
	close(release)
	<-done
}

func TestUnlockOfUnheldPanics(t *testing.T) {
	var m Mutex[Ledger]
	m.mu.Lock() // held, but not through the ranked Lock
	if msg := mustPanic(t, m.Unlock); !strings.Contains(msg, "releasing core ledger") {
		t.Errorf("panic %q", msg)
	}
}
