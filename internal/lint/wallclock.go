package lint

import (
	"go/ast"
	"go/token"
)

// wallclockScope lists the path segments of the determinism-critical
// packages. vclock is deliberately in scope: its wall-clock calls exist,
// but each must carry an explicit waiver. reputation is in scope because
// the engine's decay arithmetic must be a function of its injected clock —
// an ambient time.Now would desynchronize identical schedules across runs.
// banstore is in scope because recovery replay must reproduce the exact
// state the live process held: fsync pacing and latency measurement run
// off the injected clock, and record timestamps come from the callers'
// clocks, never the ambient one. observer is in scope because the fleet
// store's synthesized event stamps and poll pacing must be injectable for
// the crash/restart chaos suite to replay deterministically. fleet and
// attack are in scope because the multi-process harness and the attack
// replayers time their pacing, ban waits, and session stamps off their
// package's one vclock seam; an ambient read there makes the fleet
// artifacts non-reproducible (the attacker's socket deadline carries an
// explicit waiver). swarm is in scope because the event-loop engine schedules
// purely off readiness edges and condition variables: a stray timer or
// ambient clock read there would reintroduce the host-scheduling
// dependence the engine exists to remove. wal is in scope because recovery
// must be a function of the directory's bytes alone; ring stamps nothing.
var wallclockScope = []string{"simnet", "experiments", "vclock", "reputation", "banstore", "observer", "wal", "ring", "fleet", "attack", "swarm"}

// bannedTime is the set of time-package functions that read or schedule
// against the ambient clock. Constructors of values (time.Date, time.Unix,
// time.Duration arithmetic) are fine — they are pure.
var bannedTime = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
}

// allowedRand is the set of math/rand names that do NOT touch the global
// generator: constructors for explicitly seeded sources and their types.
// Everything else exported by math/rand and math/rand/v2 draws from shared
// process-global state and is banned in scope.
var allowedRand = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
	// Type names, usable in declarations.
	"Rand":     true,
	"Source":   true,
	"Source64": true,
	"Zipf":     true,
	"PCG":      true,
	"ChaCha8":  true,
}

// wallclock keeps wall-clock time and unseeded randomness out of the
// determinism-critical packages.
//
// The reproduction's headline guarantees — seeded fault plans that replay
// identically, chaos scenarios whose assertions do not depend on host
// scheduling, experiment tables that are functions of their inputs — hold
// only if the simulation substrate never consults an ambient clock or the
// global math/rand state. A single stray time.Now in a fault schedule is
// invisible to go vet and to the race detector, and only bites when a slow
// CI machine happens to stretch the window it gates. Inside the scoped
// packages every use of the time package's clock-reading or scheduling
// functions and every call into the global math/rand generator (anything
// not routed through an explicitly seeded rand.New) is a finding.
//
// The sanctioned gateway is internal/vclock: code in scope takes its time
// from an injected vclock.Clock, and vclock's own System implementation —
// the one place wall clock is allowed to enter — carries
// //lint:allow wallclock(...) waivers that keep the boundary auditable.
func wallclock(fset *token.FileSet, files []*ast.File, path string) []Finding {
	if !inScope(path, wallclockScope) {
		return nil
	}
	var out []Finding
	for _, file := range files {
		timeName := ImportName(file, "time")
		randName := ImportName(file, "math/rand")
		randV2Name := ImportName(file, "math/rand/v2")
		if timeName == "" && randName == "" && randV2Name == "" {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			base, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch {
			case timeName != "" && base.Name == timeName:
				if bannedTime[sel.Sel.Name] {
					out = append(out, at(fset, sel.Pos(),
						"%s.%s reads the ambient clock in a determinism-critical package; take time from an injected vclock.Clock",
						base.Name, sel.Sel.Name))
				}
			case (randName != "" && base.Name == randName) || (randV2Name != "" && base.Name == randV2Name):
				if !allowedRand[sel.Sel.Name] {
					out = append(out, at(fset, sel.Pos(),
						"%s.%s draws from the global math/rand generator in a determinism-critical package; use an explicitly seeded rand.New",
						base.Name, sel.Sel.Name))
				}
			}
			return true
		})
	}
	return out
}
