package experiments

import "banscore/internal/vclock"

// clk is the experiment harness's single time source. The measurement
// loops (flood pacing, per-query cost timing, convergence waits) read it
// instead of package time so the banlint wallclock analyzer can prove the
// experiments' only wall-clock dependence is this one seam.
var clk = vclock.System()
