// Package fingerprintpurity protects the determinism of the snapshot
// fingerprint and of the outcome index the streaming writer builds with
// it. The
// acceptance bar for the whole distributed pipeline is "merged store
// fingerprint equals unsharded store fingerprint", which only holds if
// everything folded into a fingerprint is a pure function of the
// campaign's outcomes. Two shapes break that silently:
//
//   - hashing a nondeterministic snapshot field: SavedAt and Stamps
//     are wall-clock provenance, different on every run and every
//     shard, so feeding them to a fingerprint sink makes equal stores
//     hash unequal;
//   - emitting sink records from inside a map range: Go randomizes map
//     iteration order, so the same outcomes can fold in a different
//     order per process. Sinks are order-sensitive; writers range over
//     sorted key slices.
//
// Sinks are the streaming writers that fold the fingerprint —
// (*campaignstore.SnapshotEncoder).Add, (*campaignstore.StreamWriter).Add,
// (*outcomeindex.Builder).Add — plus any write into a hash.Hash
// (h.Write, fmt.Fprintf(h, ...)), detected structurally by method set
// so new hash call sites are covered without registration.
package fingerprintpurity

import (
	"go/ast"
	"go/types"

	"spex/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "fingerprintpurity",
	Doc:  "fingerprint and outcome-index sinks take only deterministic inputs: no SavedAt/Stamps, no map-ordered emission",
	Run:  run,
}

const (
	storePkg = "spex/internal/campaignstore"
	indexPkg = "spex/internal/outcomeindex"
)

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isSink(pass, n) {
					checkSinkArgs(pass, n)
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// isSink reports whether the call folds data into a fingerprint or
// outcome index.
func isSink(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass.Info, call)
	if fn == nil {
		return false
	}
	recv := analysis.ReceiverType(pass.Info, call)
	if fn.Name() == "Add" {
		if analysis.NamedType(recv, storePkg, "SnapshotEncoder") ||
			analysis.NamedType(recv, storePkg, "StreamWriter") ||
			analysis.NamedType(recv, indexPkg, "Builder") {
			return true
		}
	}
	// h.Write / h.Sum for any hash.Hash-shaped receiver. The receiver
	// expression's type decides, not the method's declared receiver:
	// hash.Hash embeds io.Writer, so the Write method resolves to
	// io.Writer.Write and would never look hash-shaped on its own.
	if fn.Name() == "Write" || fn.Name() == "Sum" {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isHash(pass.TypeOf(sel.X)) {
			return true
		}
	}
	// fmt.Fprint* writing into a hash.
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(fn.Name() == "Fprintf" || fn.Name() == "Fprint" || fn.Name() == "Fprintln") &&
		len(call.Args) > 0 && isHash(pass.TypeOf(call.Args[0])) {
		return true
	}
	return false
}

// isHash structurally recognizes a hash.Hash: an io.Writer that also
// has Sum([]byte) []byte and BlockSize() int. Structural matching
// keeps the rule alive for fnv, sha256, or any future digest without a
// registration list.
func isHash(t types.Type) bool {
	if t == nil {
		return false
	}
	ms := types.NewMethodSet(t)
	var hasSum, hasBlock, hasWrite bool
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Sum":
			hasSum = true
		case "BlockSize":
			hasBlock = true
		case "Write":
			hasWrite = true
		}
	}
	return hasSum && hasBlock && hasWrite
}

// checkSinkArgs flags nondeterministic snapshot fields in a sink
// call's arguments.
func checkSinkArgs(pass *analysis.Pass, call *ast.CallExpr) {
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if name != "SavedAt" && name != "Stamps" {
				return true
			}
			if analysis.NamedType(pass.TypeOf(sel.X), storePkg, "Snapshot") {
				pass.Reportf(sel.Pos(), "Snapshot.%s is wall-clock provenance, different on every run; hashing it makes equal stores fingerprint unequal", name)
			}
			return true
		})
	}
}

// checkMapRange flags sink calls inside a map iteration.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && isSink(pass, call) {
			pass.Reportf(call.Pos(), "fingerprint sink fed from a map range: iteration order is randomized, so equal stores would hash unequal — range over sorted keys")
		}
		return true
	})
}
