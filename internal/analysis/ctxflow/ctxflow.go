// Package ctxflow checks that cancellation actually flows. Two rules:
//
//   - context.Background() and context.TODO() are banned outside
//     package main and _test.go files: library code takes its context
//     from the caller, because a buried Background() is exactly the
//     place cancellation silently stops propagating (the coordinator's
//     spawn/watch path and the daemon's job runner were both bitten by
//     this shape).
//   - a function that receives a context.Context must not call the
//     context-free variant of an API with a context-aware twin:
//     time.Sleep, exec.Command and net/http's Get/Head/Post/PostForm
//     all ignore the cancellation the signature promised to honor.
//
// Deliberate roots (a daemon's lifetime context, a process-wide memo)
// carry a //spexlint:ignore ctxflow directive with the reason.
package ctxflow

import (
	"go/ast"

	"spex/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "contexts are threaded, not re-rooted: no Background/TODO outside main, no context-free blocking calls in context-bearing functions",
	Run:  run,
}

// bannedInCtxFunc maps (package path, function) to the context-aware
// replacement named in the diagnostic.
var bannedInCtxFunc = map[[2]string]string{
	{"time", "Sleep"}:        "a timer select on ctx.Done()",
	{"os/exec", "Command"}:   "exec.CommandContext (or document why cancellation arrives another way)",
	{"net/http", "Get"}:      "http.NewRequestWithContext",
	{"net/http", "Head"}:     "http.NewRequestWithContext",
	{"net/http", "Post"}:     "http.NewRequestWithContext",
	{"net/http", "PostForm"}: "http.NewRequestWithContext",
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg != nil && pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		analysis.WithPath(file, func(n ast.Node, path []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isMain {
				if analysis.IsPkgFunc(pass.Info, call, "context", "Background") {
					pass.Reportf(call.Pos(), "context.Background() outside package main: accept a ctx from the caller so cancellation keeps propagating")
				}
				if analysis.IsPkgFunc(pass.Info, call, "context", "TODO") {
					pass.Reportf(call.Pos(), "context.TODO() outside package main: accept a ctx from the caller so cancellation keeps propagating")
				}
			}
			fn := analysis.CalleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			repl, banned := bannedInCtxFunc[[2]string{fn.Pkg().Path(), fn.Name()}]
			if !banned || !inCtxBearingFunc(pass, path) {
				return true
			}
			pass.Reportf(call.Pos(), "%s.%s ignores the context this function receives; use %s", fn.Pkg().Name(), fn.Name(), repl)
			return true
		})
	}
	return nil
}

// inCtxBearingFunc reports whether any enclosing function declaration
// or literal takes a context.Context — if one does, the context is in
// scope at the call site and dropping it is a choice, not a constraint.
func inCtxBearingFunc(pass *analysis.Pass, path []ast.Node) bool {
	for i := len(path) - 1; i >= 0; i-- {
		switch path[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if analysis.FuncHasCtxParam(pass.Info, path[i]) {
				return true
			}
		}
	}
	return false
}
