package lint

import (
	"go/ast"
	"go/token"
)

// gospawnScope lists the path segments of the packages whose goroutines
// must be supervised. observer is in scope because its pollers are
// long-lived per-node goroutines whose shutdown the fleet driver must be
// able to await. fleet and attack are in scope because the harness reaps
// child processes and the attack sessions drain connection reads; an orphan
// goroutine there survives Shutdown and flakes the fleet smoke run's exit.
// swarm is in scope because the event-loop engine's shard workers are
// exactly the goroutines Stop must reap — an unsupervised worker there
// leaks a busy loop per shard. wal and ring are in scope because neither
// has a spawn helper: any go statement there is a finding.
var gospawnScope = []string{"node", "peer", "banstore", "observer", "wal", "ring", "fleet", "attack", "swarm"}

// gospawn forbids bare go statements in the connection-handling packages.
//
// The node and peer packages own goroutines whose lifetimes must be
// collected at shutdown: Stop contracts, the chaos suite's leak
// assertions, and the self-healing connection manager's slot accounting
// all assume every spawned goroutine is registered with the owner's
// WaitGroup before it starts. A bare `go` statement silently re-introduces
// orphan goroutines that outlive Stop and turn clean shutdown into a race.
// In the scoped packages a go statement may appear only in the body of a
// supervised spawn helper ((*Node).spawn, (*Peer).spawn, any function named
// spawn). The rare legitimately unsupervised goroutine — an abandoned-dial
// reaper that may block forever on a hung Dialer — documents itself with
// //lint:allow gospawn(<reason>).
func gospawn(fset *token.FileSet, files []*ast.File, path string) []Finding {
	if !inScope(path, gospawnScope) {
		return nil
	}
	var out []Finding
	for _, file := range files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "spawn" {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					out = append(out, at(fset, g.Pos(),
						"bare go statement in %s; route goroutines through the supervised spawn helper so shutdown can collect them",
						fn.Name.Name))
				}
				return true
			})
		}
	}
	return out
}
