package attack

import (
	"testing"

	"banscore/internal/leakcheck"
)

// TestMain fails the binary if an attack fan-out strands a goroutine past
// its driver, or if a forged frame (EncodeBlock) leaves a pooled buffer
// unreleased.
func TestMain(m *testing.M) { leakcheck.Main(m) }
