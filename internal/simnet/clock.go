package simnet

import "banscore/internal/vclock"

// clk is the fabric's single time source. Every deadline, latency queue,
// and blackhole delay in the package reads it instead of package time, so
// the banlint wallclock analyzer can prove the substrate has exactly one
// wall-clock dependence.
var clk = vclock.System()
