// Package leakcheck asserts at the end of a test binary that no
// application goroutines outlived the tests — a dependency-free take on
// go.uber.org/goleak, sized for this repository's shutdown contracts — and
// that no pooled wire buffer was left unreleased.
//
// The packages that own goroutines (node, peer, chaos, swarm, attack)
// promise that Stop / Disconnect / WaitForShutdown collect everything they
// spawned; the banlint gospawn analyzer enforces the spawn-side half of
// that contract statically, and this package enforces the collect-side
// half dynamically. Wire it in with one line:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// After the package's tests pass, Main snapshots every goroutine stack and
// fails the binary if any non-benign goroutine is still alive once a grace
// window expires. The window absorbs honest raciness — a conn.Close that
// has been issued but whose read-loop goroutine has not yet observed it —
// while still catching the fire-and-forget goroutine that will never exit.
//
// After the goroutine check, Main also fails the binary if
// wire.Outstanding is not zero: a *wire.Buf was handed out and never
// Released or Detached, so the flood path it sits on allocates per
// message. Only the poolpoison build counts buffers (make test-poolpoison);
// in a normal build the count is always zero.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"banscore/internal/wire"
)

// testingM is the subset of *testing.M that Main needs; an interface so
// the package itself stays importable (and testable) without a testing
// dependency in its API.
type testingM interface {
	Run() int
}

// Main runs the package's tests, then fails the binary on leaked
// goroutines or unreleased wire buffers. Leak checking is skipped when the
// tests already failed — a failed test tearing down early leaks by design
// and the real failure would be drowned out.
func Main(m testingM) {
	code := m.Run()
	if code == 0 {
		if err := Check(5 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "leakcheck: %v\n", err)
			code = 1
		}
		if n := wire.Outstanding(); n != 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d pooled wire buffer(s) outstanding after tests completed\n", n)
			code = 1
		}
	}
	os.Exit(code)
}

// Check polls the goroutine set until only benign goroutines remain or the
// grace window expires, returning an error that carries the offending
// stacks. Exported separately so individual tests with their own lifecycle
// boundaries can assert mid-binary.
func Check(window time.Duration) error {
	deadline := time.Now().Add(window)
	backoff := time.Millisecond
	var leaked []string
	for {
		leaked = offenders()
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(backoff)
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
	return fmt.Errorf("%d goroutine(s) still alive %v after tests completed:\n\n%s",
		len(leaked), window, strings.Join(leaked, "\n\n"))
}

// offenders snapshots all goroutine stacks and returns the non-benign
// ones, the calling goroutine excluded.
func offenders() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for i, stack := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // the first stack is this goroutine
		}
		if stack = strings.TrimSpace(stack); stack == "" || benign(stack) {
			continue
		}
		out = append(out, stack)
	}
	return out
}

// benignMarkers identify goroutines owned by the runtime and the testing
// framework rather than by code under test.
var benignMarkers = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*M).",
	"testing.runTests(",
	"testing.runFuzzing(",
	"runtime.goexit0(",
	"runtime.gc(",
	"runtime.bgsweep(",
	"runtime.bgscavenge(",
	"runtime.forcegchelper(",
	"runtime.runfinq(",
	"runtime.ReadTrace(",
	"os/signal.signal_recv(",
	"os/signal.loop(",
	"created by runtime.gc",
	"created by runtime.createfing",
	"go.itab.*os.file",
}

func benign(stack string) bool {
	for _, marker := range benignMarkers {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
