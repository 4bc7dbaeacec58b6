package fleet

import "banscore/internal/vclock"

// clk is the fleet driver's single time source. Readiness deadlines, the
// ban-propagation wait, and process-reap timeouts all read it instead of
// package time, so the banlint wallclock analyzer can prove the harness's
// only wall-clock dependence is this one seam.
var clk = vclock.System()
