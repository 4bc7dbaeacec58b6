// Package locks is a lockhold fixture. The analyzer is unscoped, so the
// directory name carries no meaning.
package locks

import (
	"sync"
	"time"
)

type guarded struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	cond *sync.Cond
	wg   sync.WaitGroup
	ch   chan int
}

// sendWhileHeld is the canonical violation.
func (g *guarded) sendWhileHeld() {
	g.mu.Lock()
	g.ch <- 1 // want `channel send while holding g\.mu; blocking under a mutex is the chaos suite's deadlock shape — move the operation outside the critical section`
	g.mu.Unlock()
}

// afterUnlock shows release clears the state.
func (g *guarded) afterUnlock() {
	g.mu.Lock()
	g.mu.Unlock()
	g.ch <- 1
}

// deferredUnlock keeps the lock held to the end of the function.
func (g *guarded) deferredUnlock() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return <-g.ch // want `channel receive while holding g\.mu`
}

// receiveAssign finds receives on assignment right-hand sides.
func (g *guarded) receiveAssign() {
	g.rw.RLock()
	v := <-g.ch // want `channel receive while holding g\.rw`
	_ = v
	g.rw.RUnlock()
}

// sleepy flags time.Sleep under a lock.
func (g *guarded) sleepy() {
	g.mu.Lock()
	time.Sleep(time.Millisecond) // want `call to time\.Sleep while holding g\.mu`
	g.mu.Unlock()
}

// clock is the shape of vclock.Clock: its Sleep parks like time.Sleep.
type clock interface{ Sleep(time.Duration) }

// clockSleep flags an injected clock's Sleep under a lock, not after it.
func (g *guarded) clockSleep(clk clock) {
	g.mu.Lock()
	clk.Sleep(time.Millisecond) // want `call to clk\.Sleep while holding g\.mu`
	g.mu.Unlock()
	clk.Sleep(time.Millisecond)
}

// unlockToWait is called with g.mu held and drops it to wait: what precedes
// the unlock runs under the caller's lock.
func (g *guarded) unlockToWait(clk clock) {
	clk.Sleep(time.Millisecond) // want `call to clk\.Sleep while holding g\.mu`
	g.mu.Unlock()
	clk.Sleep(time.Millisecond)
	g.mu.Lock()
}

// waits flags WaitGroup-style waits but not sync.Cond waits.
func (g *guarded) waits() {
	g.mu.Lock()
	g.wg.Wait() // want `call to g\.wg\.Wait while holding g\.mu`
	g.cond.Wait()
	g.mu.Unlock()
}

// selects flags a default-less select but not one that cannot park.
func (g *guarded) selects(quit chan struct{}) {
	g.mu.Lock()
	select { // want `select with no default clause while holding g\.mu`
	case <-quit:
	}
	g.mu.Unlock()

	g.mu.Lock()
	select {
	case g.ch <- 1:
	default:
	}
	g.mu.Unlock()
}

// branchLocal shows a lock taken inside a branch does not leak out.
func (g *guarded) branchLocal(b bool) {
	if b {
		g.mu.Lock()
		g.ch <- 1 // want `channel send while holding g\.mu`
		g.mu.Unlock()
	}
	g.ch <- 1
}

// spawned bodies run concurrently, not under our locks.
func (g *guarded) spawned() {
	g.mu.Lock()
	go func() {
		g.ch <- 1
	}()
	g.mu.Unlock()
}

// unlocked code never reports.
func (g *guarded) unlocked() {
	g.ch <- 1
	<-g.ch
	g.wg.Wait()
	time.Sleep(time.Millisecond)
}

// suppressed proves one waiver covers exactly one line.
func (g *guarded) suppressed() {
	g.mu.Lock()
	//lint:allow lockhold(fixture: buffered channel sized for the worst case)
	g.ch <- 1
	g.ch <- 1 // want `channel send while holding g\.mu`
	g.mu.Unlock()
}

// malformed directives report themselves and waive nothing.
func (g *guarded) malformed() {
	g.mu.Lock()
	g.ch <- 1 //lint:allow lockhold // want `channel send while holding g\.mu` `malformed lint:allow directive: want //lint:allow <analyzer>\(<reason>\) with a non-empty reason`
	g.mu.Unlock()
}
