// Package hubsend keeps the event fan-out non-blocking and goroutines
// cancellable. The daemon's design invariant is that a slow consumer
// can never stall a publisher: the event bus (internal/dash) is the
// only fan-out, owns the only subscriber buffers, and sheds load per
// subscriber by dropping the oldest event. Shapes that reintroduce
// blocking or leaks:
//
//   - a raw channel send of dash.Event outside package dash bypasses
//     the bus's drop-oldest policy — a hand-rolled channel of events
//     stalls every publisher on its slowest consumer;
//   - time.Tick leaks its ticker by construction; a time.NewTicker
//     whose handle is neither stopped nor escapes leaks it too;
//   - <-time.After inside a loop allocates a timer per iteration that
//     fires long after the loop moved on (the classic slow leak in
//     serve loops); hoist a Timer or use a Ticker;
//   - a goroutine spawned inside an HTTP handler that never observes a
//     context or Done channel outlives its request — the daemon's
//     handlers must tie background work to the request or server
//     lifetime.
package hubsend

import (
	"go/ast"

	"spex/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "hubsend",
	Doc:  "events flow through dash.Bus, tickers are stopped, loops don't stack time.After, handler goroutines observe cancellation",
	Run:  run,
}

const dashPkg = "spex/internal/dash"

func run(pass *analysis.Pass) error {
	inDash := pass.Pkg != nil && pass.Pkg.Path() == dashPkg
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		analysis.WithPath(file, func(n ast.Node, path []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkTimeCall(pass, n, path)
			case *ast.SendStmt:
				if !inDash && analysis.NamedType(pass.TypeOf(n.Value), dashPkg, "Event") {
					pass.Reportf(n.Pos(), "raw channel send of dash.Event bypasses the bus's per-subscriber drop-oldest policy and can block the publisher; publish via (*dash.Bus).Publish")
				}
			case *ast.GoStmt:
				checkHandlerGoroutine(pass, n, path)
			}
			return true
		})
	}
	return nil
}

func checkTimeCall(pass *analysis.Pass, call *ast.CallExpr, path []ast.Node) {
	switch {
	case analysis.IsPkgFunc(pass.Info, call, "time", "Tick"):
		pass.Reportf(call.Pos(), "time.Tick leaks its ticker; use time.NewTicker with defer ticker.Stop()")
	case analysis.IsPkgFunc(pass.Info, call, "time", "NewTicker"):
		encl := analysis.EnclosingFunc(path)
		if encl == nil {
			return
		}
		id, obj := analysis.AssignedIdent(pass.Info, path, call)
		if id == nil {
			// `return time.NewTicker(d)` hands the handle to the caller;
			// only dropping it outright is the leak.
			if analysis.ResultDiscarded(path, call) {
				pass.Reportf(call.Pos(), "ticker handle discarded; it can never be stopped")
			}
			return
		}
		fate := analysis.ClassifyHandle(pass.Info, encl, obj, "Stop")
		if !fate.Released && !fate.Escaped {
			pass.Reportf(call.Pos(), "ticker is never stopped: defer %s.Stop() (or hand the handle off)", id.Name)
		}
	case analysis.IsPkgFunc(pass.Info, call, "time", "After"):
		if inLoop(path) {
			pass.Reportf(call.Pos(), "time.After in a loop allocates an unstoppable timer per iteration; hoist a time.Timer or use a Ticker")
		}
	}
}

func inLoop(path []ast.Node) bool {
	for i := len(path) - 1; i >= 0; i-- {
		switch path[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncDecl, *ast.FuncLit:
			// A function boundary resets loop context: the literal's body
			// runs once per call, wherever the literal was written.
			return false
		}
	}
	return false
}

// checkHandlerGoroutine flags a go statement inside an HTTP handler
// whose spawned function observes no cancellation signal: it
// references no context.Context value and selects on no Done channel,
// so nothing ends it when the request (or the server) goes away.
func checkHandlerGoroutine(pass *analysis.Pass, g *ast.GoStmt, path []ast.Node) {
	inHandler := false
	for i := len(path) - 1; i >= 0; i-- {
		switch f := path[i].(type) {
		case *ast.FuncDecl:
			inHandler = inHandler || analysis.FuncHasParamType(pass.Info, f, "net/http", "ResponseWriter")
		case *ast.FuncLit:
			inHandler = inHandler || analysis.FuncHasParamType(pass.Info, f, "net/http", "ResponseWriter")
		}
	}
	if !inHandler {
		return
	}
	if observesCancellation(pass, g.Call) {
		return
	}
	pass.Reportf(g.Pos(), "goroutine spawned in an HTTP handler without a cancellation path: it must observe a context or Done channel, or it outlives the request")
}

func observesCancellation(pass *analysis.Pass, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if t := pass.TypeOf(n); analysis.NamedType(t, "context", "Context") {
				found = true
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "Done" {
				found = true
			}
		}
		return !found
	})
	return found
}
