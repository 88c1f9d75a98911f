// The package loader, the only way a unit reaches the analyzers: one
// `go list -e -deps -export -test -json` listing resolves every
// dependency to compiled export data and describes every unit, then
// each unit is parsed and type-checked from source with go/importer
// reading those export files. This is what the x/tools go/packages
// loader does in LoadAllSyntax mode, cut down to the one configuration
// spexlint needs — no cgo special cases, no overlays, no module graph
// mutation. The units are the listing's own: a package with _test.go
// files is its test variant "p [p.test]", which cmd/go compiles from
// the sources plus the tests, and an external test is "p_test
// [p.test]". A package that fails to load or build becomes a unit that
// carries the failure, so it hides no other package's findings.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked compilation unit. An in-package
// test unit carries the package's _test.go files alongside its
// ordinary sources; an external _test package is its own unit.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// Errors collects what keeps the unit from being analyzed: the
	// error go list reports for its package (a package the compiler
	// rejects, or a pattern that names none), a file that does not
	// parse, and type-check failures. The loader keeps going, and Check
	// reports a unit's errors instead of analyzing it.
	Errors []error
}

// listedPkg is the subset of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath  string
	ForTest     string
	DepOnly     bool
	Dir         string
	Export      string
	GoFiles     []string
	CgoFiles    []string
	TestGoFiles []string
	Error       *listError
}

// listError is go list's report of a package it could not load or
// build.
type listError struct {
	Pos string
	Err string
}

func (e *listError) Error() string {
	msg := strings.TrimSpace(e.Err)
	// A build failure opens with cmd/go's "# <import path>" banner line.
	if rest, ok := strings.CutPrefix(msg, "# "); ok {
		if _, out, ok := strings.Cut(rest, "\n"); ok {
			msg = out
		}
	}
	if e.Pos != "" {
		return e.Pos + ": " + msg
	}
	return msg
}

// exportIndex maps canonical import paths to compiled export-data
// files, the importer's lookup table. It keeps the bracketed test
// variants ("dep [pkg.test]") under their listed names, beside the
// plain export the rest of the graph links against. A package go list
// could not build has no export data.
type exportIndex map[string]string

// importerFor returns a types.Importer resolving through the index. A
// non-empty forTest names the package whose external test is being
// checked: each import then resolves to its "[forTest.test]" variant
// where `go list -test` built one (forTest itself with its _test.go
// files, export_test.go included, and every dependency recompiled
// against it), as cmd/go links that test.
func (idx exportIndex) importerFor(fset *token.FileSet, forTest string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := idx[path+" ["+forTest+".test]"]
		if forTest == "" || !ok {
			f, ok = idx[path]
		}
		if !ok {
			return nil, fmt.Errorf("no export data for %q (it failed to build, or is not in the loaded dependency closure)", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// Load type-checks the packages matching the patterns, their tests
// included (module-local syntax, export-data dependencies). dir is a
// directory inside the module, where `go list` runs and relative
// patterns resolve; a pattern may name a testdata directory outright,
// which `./...` never matches. The units are the listing's entries the
// patterns named, except a package with _test.go files, whose test
// variant stands in for it, and test mains, whose files cmd/go
// generates. An entry go list reports an error for is one unit that
// carries the error, and is not type-checked.
func Load(dir string, patterns ...string) ([]*Package, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	idx := exportIndex{}
	for _, p := range pkgs {
		if p.Export != "" {
			idx[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := idx.importerFor(fset, "")
	var out []*Package
	for _, p := range pkgs {
		// A test variant checks under its package's path: "p [p.test]"
		// as p, "p_test [p.test]" as p_test.
		path, _, _ := strings.Cut(p.ImportPath, " ")
		switch {
		case p.DepOnly, p.ForTest == "" && len(p.TestGoFiles) > 0:
			continue // a dependency, or a package its test variant stands in for
		case p.ForTest == "" && strings.HasSuffix(path, ".test"):
			continue // a test main
		case p.Error != nil:
			out = append(out, &Package{PkgPath: path, Errors: []error{p.Error}})
			continue
		case len(p.CgoFiles) > 0:
			return nil, fmt.Errorf("analysis: %s uses cgo, which this loader does not support", path)
		case len(p.GoFiles) == 0:
			continue // only external tests, which are their own unit
		}
		unitImp := imp
		if p.ForTest != "" && path != p.ForTest {
			unitImp = idx.importerFor(fset, p.ForTest)
		}
		out = append(out, checkUnit(fset, unitImp, path, p.Dir, p.GoFiles))
	}
	return out, nil
}

// checkUnit parses and type-checks one unit, the named files in dir. A
// file that does not parse is the unit's error, and the unit is not
// type-checked.
func checkUnit(fset *token.FileSet, imp types.Importer, pkgPath, dir string, files []string) *Package {
	u := &Package{PkgPath: pkgPath, Fset: fset}
	for _, f := range files {
		af, err := parser.ParseFile(fset, filepath.Join(dir, f), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			u.Errors = append(u.Errors, err)
			continue
		}
		u.Files = append(u.Files, af)
	}
	if len(u.Errors) > 0 {
		return u
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { u.Errors = append(u.Errors, err) },
	}
	u.Types, _ = conf.Check(pkgPath, fset, u.Files, info) // errors collected via conf.Error
	u.Info = info
	return u
}

// goList runs the loader's one listing in dir.
func goList(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-test", "-json=ImportPath,ForTest,DepOnly,Dir,Export,GoFiles,CgoFiles,TestGoFiles,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var pkgs []listedPkg
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
