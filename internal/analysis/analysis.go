// Package analysis is a self-contained static-analysis framework in
// the style of golang.org/x/tools/go/analysis, built only on the
// standard library's go/ast, go/types and go/importer: the repo vendors
// no dependencies, so the checker suite (cmd/spexlint) carries its own
// driver. Three drivers share the analyzers:
//
//   - Load (load.go) type-checks packages via `go list -export` and
//     powers the standalone `spexlint ./...` mode, the analysistest
//     fixture harness, and the repo-wide cleanliness test;
//   - Main (unit.go) speaks cmd/go's unitchecker .cfg protocol, which
//     is what `go vet -vettool=$(which spexlint) ./...` invokes;
//   - analysistest runs one analyzer over a testdata fixture tree and
//     diffs the diagnostics against `// want` comments.
//
// # Checked invariants
//
// The five analyzers encode the repo's cross-cutting contracts — the
// rules that hold the concurrency and persistence design together but
// that neither the compiler nor the race detector can see:
//
// lockcontract enforces the campaignstore writer-lock ownership model.
// A (*Store).Lock call must be paired with an Unlock in the same
// function (directly or deferred) or the handle must escape to a
// caller that owns the release; a second Lock on the same store
// without an intervening Unlock is flagged; Lock may never be called
// inside an http.Handler-shaped function (the daemon's read path is
// lock-free by design — snapshots and the outcome index serve reads)
// nor inside a shard.Progress or coord.Event callback (those run on
// the scheduler's emit path, under the campaign the lock protects);
// and the ".spex.lock" file name may not be spelled outside
// campaignstore — foreign code goes through campaignstore.LockPath.
// The refactor that makes this checkable at all is in the types:
// (*LockSet).Save and (*LockSet).NewStreamWriter, on the set a held
// Lock mints, are the only snapshot-write capability, so "writes
// happen under the lock" is a compile-time fact and only the
// acquisition discipline is left to the analyzer.
//
// ctxflow enforces context threading. context.Background and
// context.TODO are banned outside package main and _test.go files
// (every long-running entry point takes a caller context); and a
// function that receives a context.Context must not call the
// context-free variant of an API that has a context-aware one —
// time.Sleep, exec.Command, net/http's Get/Post/Head/PostForm — because
// each of those silently drops the cancellation the caller was
// promised.
//
// fingerprintpurity guards the snapshot fingerprint and the outcome
// index the streaming writer builds with it. Code feeding a
// fingerprint or index sink (SnapshotEncoder.Add, StreamWriter.Add,
// outcomeindex.Builder.Add, or an fmt.Fprint* whose writer is a
// hash.Hash) must not hash nondeterministic snapshot fields — SavedAt
// and Stamps — and must not emit sink records from inside a map
// range, whose order would make equal stores fingerprint unequal.
//
// hubsend keeps the event fan-out non-blocking. Events may only enter
// the daemon's fan-out through dash.Bus (a send on a chan dash.Event
// outside package dash is flagged); time.Tick and a
// time.NewTicker that is neither stopped nor escapes leak their
// ticker; <-time.After inside a for loop allocates a timer per
// iteration that only fires long after the loop moved on; and a
// goroutine spawned inside an HTTP handler must observe a context (a
// ctx variable or a Done channel), or it outlives its request.
//
// obsmetric enforces the metric-registration discipline of
// internal/obs. A registration call (Counter, Gauge, Histogram or a
// Vec variant on an obs.Registry) must sit in a package-level var
// initializer, its name argument must be an identifier denoting a
// package-level string constant (never an inline or computed string),
// and the same constant may feed only one registration call per
// package — a duplicate would panic the first time both initializers
// link into one binary.
//
// Every rule can be waived at a specific site with
//
//	//spexlint:ignore <analyzer> <reason>
//
// on the flagged line or the line above it; the reason is mandatory
// and should say why the invariant does not apply there.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Analyzer is one named check. Run inspects a single type-checked
// package and reports findings through the Pass; analyzers keep no
// state between packages.
type Analyzer struct {
	Name string
	// Doc is the one-line contract statement shown by `spexlint -help`.
	Doc string
	Run func(*Pass) error
}

// Pass hands an Analyzer one package's syntax and types.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, positioned for `file:line:col: message`
// rendering.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (spexlint:%s)",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is shorthand for the expression's type, nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf resolves an identifier's object, nil when unknown.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// IsTestFile reports whether pos sits in a _test.go file. The vet
// protocol analyzes test-augmented compilation units, so analyzers
// exempt test code by file name, not by package.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// RunAnalyzers applies every analyzer to the package unit and returns
// the surviving diagnostics: findings suppressed by a
// `//spexlint:ignore` directive are dropped, the rest come back sorted
// by position. An analyzer error aborts the unit (a broken checker
// must fail loudly, not silently pass the build).
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	ig := buildIgnoreIndex(fset, files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range pass.diags {
			if !ig.suppressed(a.Name, d.Pos) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// ignoreIndex maps (file, line) to the analyzers waived there by a
// //spexlint:ignore directive. A directive covers its own line and the
// next line, so it works both as a trailing comment and on the line
// above the flagged statement.
type ignoreIndex map[string]map[int][]string

const ignoreDirective = "//spexlint:ignore"

func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) ignoreIndex {
	idx := ignoreIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignoreDirective)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					// A directive without an analyzer name and reason is
					// itself a finding-shaped mistake; record a marker the
					// drivers report. Encoded as analyzer "" (matches
					// nothing) so the bad directive never suppresses.
					continue
				}
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					idx[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], fields[0])
			}
		}
	}
	return idx
}

func (idx ignoreIndex) suppressed(analyzer string, pos token.Position) bool {
	byLine := idx[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, name := range byLine[l] {
			if name == analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// --- shared type-inspection helpers used by the analyzers ---

// NamedType reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func NamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// CalleeFunc resolves the called function or method object of a call
// expression, nil for indirect calls and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}

// IsPkgFunc reports whether the call is to the package-level function
// pkgPath.name. Methods never match — time.After (a function) and
// time.Time.After (a method) are different animals.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// ReceiverType returns the receiver type of the called method, nil for
// plain function calls.
func ReceiverType(info *types.Info, call *ast.CallExpr) types.Type {
	fn := CalleeFunc(info, call)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// LineOf returns the position's "file:line" for stable messages.
func LineOf(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return p.Filename + ":" + strconv.Itoa(p.Line)
}
