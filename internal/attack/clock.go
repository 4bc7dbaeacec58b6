package attack

import (
	"sync"

	"banscore/internal/vclock"
)

// clk is the attacker toolkit's single time source. Flood pacing,
// time-to-ban measurement, and handshake deadlines read it instead of
// package time so the banlint wallclock analyzer can prove the attack
// drivers' only wall-clock dependence is this one seam. The one inherent
// wall-clock read — the socket read deadline, meaningless under a virtual
// clock — carries an explicit waiver in session.go.
var clk = vclock.System()

// spawn runs f on a goroutine registered with wg — the supervised form
// the gospawn analyzer requires in this package. Every attacker fan-out
// (parallel Sybil sessions, fleet dials, fleet floods) joins its
// WaitGroup before returning, so no attack goroutine outlives its driver.
func spawn(wg *sync.WaitGroup, f func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		f()
	}()
}
