// Package gospawn defines the banlint analyzer that forbids bare go
// statements in the connection-handling packages.
//
// The node and peer packages own goroutines whose lifetimes must be
// collected at shutdown: Stop contracts, the chaos suite's leak
// assertions, and the self-healing connection manager's slot accounting
// all assume every spawned goroutine is registered with the owner's
// WaitGroup before it starts. A bare `go` statement — the historic source
// of the fire-and-forget reconnect goroutine PR 2 replaced — silently
// re-introduces orphan goroutines that outlive Stop and turn clean
// shutdown into a race. This analyzer restricts `go` statements in the
// scoped packages to the bodies of the supervised spawn helpers
// ((*Node).spawn, (*Peer).spawn); anything else is a diagnostic. The rare
// legitimately unsupervised goroutine — an abandoned-dial reaper that may
// block forever on a hung Dialer — documents itself with
// //lint:allow gospawn(<reason>).
package gospawn

import (
	"go/ast"

	"banscore/internal/lint/analysis"
)

// DefaultScope lists the import-path segments of the packages whose
// goroutines must be supervised. observer is in scope because its pollers
// are long-lived per-node goroutines whose shutdown the fleet driver must
// be able to await. fleet and attack are in scope because the harness
// reaps child processes and the attack sessions drain connection reads;
// an orphan goroutine there survives Shutdown and flakes the fleet smoke
// run's exit. swarm is in scope because the event-loop engine's shard
// workers are exactly the goroutines Stop must reap — an unsupervised
// worker there leaks a busy loop per shard. wal and ring are in scope
// because neither has a spawn helper: any go statement there is a finding.
var DefaultScope = []string{"node", "peer", "banstore", "observer", "wal", "ring", "fleet", "attack", "swarm"}

// spawnHelpers names the functions allowed to contain go statements: the
// WaitGroup-registering helpers everything else must route through.
var spawnHelpers = map[string]bool{
	"spawn": true,
}

// Analyzer is the gospawn check.
var Analyzer = &analysis.Analyzer{
	Name: "gospawn",
	Doc: "require supervised goroutine spawning in the connection-handling packages\n\n" +
		"Within packages whose import path contains a scoped segment (default: " +
		"node, peer), go statements may appear only inside the spawn helper " +
		"methods that register the goroutine with the owner's WaitGroup before " +
		"it starts.",
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
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if spawnHelpers[fn.Name.Name] {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(),
						"bare go statement in %s; route goroutines through the supervised spawn helper so shutdown can collect them",
						fn.Name.Name)
				}
				return true
			})
		}
	}
	return nil
}
