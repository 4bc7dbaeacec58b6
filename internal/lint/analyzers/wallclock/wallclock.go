// Package wallclock defines the banlint analyzer that keeps wall-clock
// time and unseeded randomness out of the determinism-critical packages.
//
// The reproduction's headline guarantees — seeded fault plans that replay
// identically, chaos scenarios whose assertions do not depend on host
// scheduling, experiment tables that are functions of their inputs — hold
// only if the simulation substrate never consults an ambient clock or the
// global math/rand state. A single stray time.Now in a fault schedule is
// invisible to go vet and to the race detector, and only bites when a slow
// CI machine happens to stretch the window it gates. This analyzer makes
// the property structural: inside the scoped packages every use of the
// time package's clock-reading or scheduling functions (Now, Sleep, Since,
// Until, After, AfterFunc, NewTimer, NewTicker, Tick) and every call into
// the global math/rand generator (rand.Intn, rand.Float64, ... — anything
// not routed through an explicitly seeded rand.New) is a diagnostic.
//
// The sanctioned gateway is internal/vclock: code in scope takes its time
// from an injected vclock.Clock, and vclock's own System implementation —
// the one place wall clock is allowed to enter — carries
// //lint:allow wallclock(...) waivers that keep the boundary auditable.
package wallclock

import (
	"go/ast"

	"banscore/internal/lint/analysis"
)

// DefaultScope lists the import-path segments of the determinism-critical
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
// replayers time their pacing, ban waits, and session stamps off clocks
// that the tests fake; an ambient read there makes the fleet artifacts
// non-reproducible (wall-clock seeds and deadlines carry explicit
// waivers). swarm is in scope because the event-loop engine schedules
// purely off readiness edges and condition variables: a stray timer or
// ambient clock read there would reintroduce the host-scheduling
// dependence the engine exists to remove. wal is in scope because recovery
// must be a function of the directory's bytes alone; ring stamps nothing.
var DefaultScope = []string{"simnet", "experiments", "vclock", "reputation", "banstore", "observer", "wal", "ring", "fleet", "attack", "swarm"}

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

// Analyzer is the wallclock check.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbid ambient time and global math/rand in determinism-critical packages\n\n" +
		"Packages whose import path contains a scoped segment (default: simnet, " +
		"experiments, vclock, reputation, banstore) must take time from an injected vclock.Clock and " +
		"randomness from an explicitly seeded rand.New; ambient clock reads and " +
		"global-generator calls are reported.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	inScope := false
	for _, seg := range DefaultScope {
		if pass.HasPathSegment(seg) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, file := range pass.Files {
		timeName := analysis.ImportName(file, "time")
		randName := analysis.ImportName(file, "math/rand")
		randV2Name := analysis.ImportName(file, "math/rand/v2")
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
					pass.Reportf(sel.Pos(),
						"%s.%s reads the ambient clock in a determinism-critical package; take time from an injected vclock.Clock",
						base.Name, sel.Sel.Name)
				}
			case (randName != "" && base.Name == randName) || (randV2Name != "" && base.Name == randV2Name):
				if !allowedRand[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"%s.%s draws from the global math/rand generator in a determinism-critical package; use an explicitly seeded rand.New",
						base.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}
