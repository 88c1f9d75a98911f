// The package loader, the only way a unit reaches the analyzers:
// `go list -e -deps -export -json -test` resolves every dependency to
// compiled export data, then each requested package unit is parsed and
// type-checked from source with go/importer reading those export
// files. This is what the x/tools go/packages loader does in
// LoadAllSyntax mode, cut down to the one configuration spexlint
// needs — no cgo special cases, no overlays, no module graph mutation.
// A package that fails to load or build becomes a unit that carries
// the failure, so it hides no other package's findings.
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
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *listError
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
// files, the importer's lookup table.
type exportIndex map[string]string

// loadExportIndex builds the export index for the patterns' full
// dependency closure, including test dependencies. The index keeps the
// bracketed test variants ("dep [pkg.test]") under their listed names,
// beside the plain export the rest of the graph links against. It also
// returns the error of each package go list could not build, by import
// path; such a package has no export data.
func loadExportIndex(dir string, patterns ...string) (exportIndex, map[string]*listError, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json=ImportPath,Export,Error", "-test"}, patterns...)
	pkgs, err := goList(dir, args)
	if err != nil {
		return nil, nil, err
	}
	idx := exportIndex{}
	errs := map[string]*listError{}
	for _, p := range pkgs {
		if p.Export != "" {
			idx[p.ImportPath] = p.Export
		}
		if p.Error != nil {
			errs[p.ImportPath] = p.Error
		}
	}
	return idx, errs, nil
}

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

// Load type-checks the packages matching the patterns (module-local
// syntax, export-data dependencies). dir is a directory inside the
// module, where `go list` runs and relative patterns resolve; a
// pattern may name a testdata directory outright, which `./...` never
// matches. withTests folds each package's _test.go files into its unit
// and adds external _test packages as their own units. A package go
// list reports an error for is one unit that carries the error, and is
// not type-checked.
func Load(dir string, withTests bool, patterns ...string) ([]*Package, error) {
	idx, buildErrs, err := loadExportIndex(dir, patterns...)
	if err != nil {
		return nil, err
	}
	args := append([]string{"list", "-e", "-json=ImportPath,Dir,GoFiles,CgoFiles,TestGoFiles,XTestGoFiles,Error"}, patterns...)
	pkgs, err := goList(dir, args)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := idx.importerFor(fset, "")
	var out []*Package
	for _, p := range pkgs {
		if p.Error == nil {
			p.Error = buildErrs[p.ImportPath]
		}
		if p.Error != nil {
			out = append(out, &Package{PkgPath: p.ImportPath, Errors: []error{p.Error}})
			continue
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("analysis: %s uses cgo, which this loader does not support", p.ImportPath)
		}
		files := absFiles(p.Dir, p.GoFiles)
		if withTests {
			files = append(files, absFiles(p.Dir, p.TestGoFiles)...)
		}
		if len(files) > 0 {
			out = append(out, checkUnit(fset, imp, p.ImportPath, files))
		}
		if withTests && len(p.XTestGoFiles) > 0 {
			ximp := idx.importerFor(fset, p.ImportPath)
			out = append(out, checkUnit(fset, ximp, p.ImportPath+"_test", absFiles(p.Dir, p.XTestGoFiles)))
		}
	}
	return out, nil
}

// checkUnit parses and type-checks one unit. A file that does not
// parse is the unit's error, and the unit is not type-checked.
func checkUnit(fset *token.FileSet, imp types.Importer, pkgPath string, files []string) *Package {
	u := &Package{PkgPath: pkgPath, Fset: fset}
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
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

func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

func goList(dir string, args []string) ([]listedPkg, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go %s: %v\n%s", strings.Join(args[:2], " "), err, stderr.String())
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
