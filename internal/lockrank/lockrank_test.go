package lockrank

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"sync"
	"testing"

	"banscore/internal/lint"
)

// TestInRankNestingAndCond runs in both builds: nesting in rank order is
// allowed, and a sync.Cond over a ranked Mutex waits and wakes through the
// ranked Unlock and Lock, as banstore's writer does.
func TestInRankNestingAndCond(t *testing.T) {
	var shard RWMutex[TrackerShard]
	var ledger Mutex[Ledger]
	shard.Lock()
	ledger.Lock()
	ledger.Unlock()
	shard.Unlock()
	shard.RLock()
	shard.RUnlock()

	var (
		mu    Mutex[BanStore]
		cond  = sync.NewCond(&mu)
		ready bool
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		mu.Lock()
		ready = true
		cond.Signal()
		mu.Unlock()
	}()
	mu.Lock()
	for !ready {
		cond.Wait()
	}
	mu.Unlock()
	wg.Wait()
}

// TestOnlyRankedLocks keeps every mutex in the ranked packages inside the
// rank table: no plain sync.Mutex or sync.RWMutex in the non-test files of
// core, reputation, banstore or observer, and no mutex of any kind in wal,
// which holds no locks (its callers serialize access to a directory).
func TestOnlyRankedLocks(t *testing.T) {
	for _, pkg := range []string{"core", "reputation", "banstore", "observer"} {
		for _, at := range mutexUses(t, filepath.Join("..", pkg), "sync") {
			t.Errorf("%s: plain sync mutex; use a lockrank class", at)
		}
	}
	for _, imp := range []string{"sync", "banscore/internal/lockrank"} {
		for _, at := range mutexUses(t, filepath.Join("..", "wal"), imp) {
			t.Errorf("%s: a mutex in wal, which holds no locks", at)
		}
	}
}

// mutexUses returns the position of every Mutex or RWMutex named through
// the import path imp in the non-test Go files of dir.
func mutexUses(t *testing.T, dir, imp string) []string {
	t.Helper()
	fset := token.NewFileSet()
	files, err := lint.ParseDir(fset, dir)
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go package in %s: %v", dir, err)
	}
	var out []string
	for _, f := range files {
		local := lint.ImportName(f, imp)
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Mutex" && sel.Sel.Name != "RWMutex") {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				out = append(out, fset.Position(sel.Pos()).String())
			}
			return true
		})
	}
	return out
}
