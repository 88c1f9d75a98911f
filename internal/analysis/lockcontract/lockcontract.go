// Package lockcontract checks the campaignstore writer-lock ownership
// discipline. The type system already guarantees writes happen under
// the lock — Save and NewStreamWriter live on the LockSet that a held
// Lock mints, the only snapshot-write capability — so this analyzer
// owns the acquisition side of the contract:
//
//   - a (*Store).Lock call's handle must be released in the acquiring
//     function (handle.Unlock(), usually deferred) or escape to a
//     caller that owns the release;
//   - a store is locked at most once per function — a second
//     acquisition with no intervening release always deadlocks the CLI
//     contract (the lock is exclusive per state directory);
//   - no acquisition runs inside an http.ResponseWriter-bearing
//     function (the daemon's read endpoints are lock-free by design:
//     they serve from snapshots and the outcome index) nor inside a
//     shard.Progress / coord.Event callback (those execute on the
//     scheduler's emit path, under the very campaign the lock guards —
//     acquiring there deadlocks the writer against itself);
//   - the ".spex.lock" file name is campaignstore's private spelling;
//     foreign code resolves it via campaignstore.LockPath.
//
// Test files are exempt: lock-contract tests must be able to abuse the
// API on purpose.
package lockcontract

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"spex/internal/analysis"
)

const (
	storePkg = "spex/internal/campaignstore"
	shardPkg = "spex/internal/shard"
	coordPkg = "spex/internal/coord"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockcontract",
	Doc:  "campaignstore writer locks are acquired once, released or handed off, and never taken on the serving or progress paths",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		checkLockLiterals(pass, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkLockLiterals flags the ".spex.lock" spelling outside its home
// package.
func checkLockLiterals(pass *analysis.Pass, file *ast.File) {
	if pass.Pkg != nil {
		p := pass.Pkg.Path()
		// campaignstore owns the name; the analysis packages may spell
		// it in diagnostics and fixtures about this very rule.
		if p == storePkg || strings.HasPrefix(p, "spex/internal/analysis") {
			return
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if ok && lit.Kind == token.STRING && strings.Contains(lit.Value, ".spex.lock") {
			pass.Reportf(lit.Pos(), "the %q file name belongs to campaignstore; use campaignstore.LockPath", ".spex.lock")
		}
		return true
	})
}

// checkFunc applies the acquisition rules to one top-level function
// and every literal nested in it.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Acquisitions seen so far, per enclosing function and receiver
	// store. Unlock calls clear the markers.
	type acquisition struct {
		fn    ast.Node
		store types.Object
	}
	var acquired []acquisition

	analysis.WithPath(fd, func(n ast.Node, path []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != storePkg {
			return true
		}
		switch fn.Name() {
		case "Unlock":
			// A direct release resets the acquisition markers: a
			// sequential lock/unlock/lock pattern is legal. A deferred
			// Unlock doesn't — it runs at function exit, so the lock stays
			// held for the rest of the body.
			if len(path) == 0 {
				return true
			}
			if _, isDefer := path[len(path)-1].(*ast.DeferStmt); !isDefer {
				acquired = acquired[:0]
			}
		case "Lock":
			if !analysis.NamedType(analysis.ReceiverType(pass.Info, call), storePkg, "Store") {
				return true
			}
			encl := analysis.EnclosingFunc(path)
			if encl == nil {
				encl = fd
			}
			checkForbiddenContext(pass, fn.Name(), call, path)

			if storeObj := receiverObject(pass.Info, call); storeObj != nil {
				for _, prev := range acquired {
					if prev.store == storeObj && prev.fn == encl {
						pass.Reportf(call.Pos(), "store already locked in this function with no intervening Unlock; the writer lock is exclusive per state directory")
					}
				}
				acquired = append(acquired, acquisition{fn: encl, store: storeObj})
			}

			id, obj := analysis.AssignedIdent(pass.Info, path, call)
			if id == nil {
				// `return store.Lock()` and friends hand the handle to an
				// expression recipient — release is theirs. Dropping the
				// results on the floor is the violation.
				if analysis.ResultDiscarded(path, call) {
					pass.Reportf(call.Pos(), "lock handle discarded; the caller that acquires the writer lock owns its release")
				}
				return true
			}
			fate := analysis.ClassifyHandle(pass.Info, encl, obj, "Unlock")
			if !fate.Released && !fate.Escaped {
				pass.Reportf(call.Pos(), "lock acquired but never released: defer %s.Unlock() (or hand the handle to the owner of the release)", id.Name)
			}
		}
		return true
	})
}

// receiverObject resolves the object of the receiver expression when
// it is a plain identifier or selector chain ending in one.
func receiverObject(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return info.ObjectOf(x)
	case *ast.SelectorExpr:
		return info.ObjectOf(x.Sel)
	}
	return nil
}

// checkForbiddenContext flags an acquisition call whose enclosing
// functions include a request handler or a scheduler callback.
func checkForbiddenContext(pass *analysis.Pass, name string, call *ast.CallExpr, path []ast.Node) {
	for i := len(path) - 1; i >= 0; i-- {
		switch f := path[i].(type) {
		case *ast.FuncDecl:
			if analysis.FuncHasParamType(pass.Info, f, "net/http", "ResponseWriter") {
				pass.Reportf(call.Pos(), "%s inside an HTTP handler: the daemon's serving path is lock-free (snapshots and the outcome index serve reads)", name)
			}
			return // outermost function reached
		case *ast.FuncLit:
			if analysis.FuncHasParamType(pass.Info, f, "net/http", "ResponseWriter") {
				pass.Reportf(call.Pos(), "%s inside an HTTP handler: the daemon's serving path is lock-free (snapshots and the outcome index serve reads)", name)
				return
			}
			if analysis.FuncHasParamType(pass.Info, f, shardPkg, "Progress") {
				pass.Reportf(call.Pos(), "%s inside a shard.Progress callback: progress hooks run on the campaign's emit path, under the lock's own writer", name)
				return
			}
			if analysis.FuncHasParamType(pass.Info, f, coordPkg, "Event") {
				pass.Reportf(call.Pos(), "%s inside a coord.Event callback: coordinator events fire on the run's emit path, under the lock's own writer", name)
				return
			}
		}
	}
}
