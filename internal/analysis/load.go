// The standalone package loader: `go list -deps -export -json -test`
// resolves every dependency to compiled export data, then each
// requested package unit is parsed and type-checked from source with
// go/importer reading those export files. This is what the x/tools
// go/packages loader does in LoadAllSyntax mode, cut down to the one
// configuration the spexlint drivers need — no cgo special cases, no
// overlays, no module graph mutation.
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
	Name    string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// TypeErrors collects type-check failures. The loader keeps going —
	// the vet protocol's SucceedOnTypecheckFailure contract — and the
	// drivers decide whether a broken package is fatal.
	TypeErrors []error
}

// listedPkg is the subset of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	Standard     bool
	ForTest      string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// ExportIndex maps canonical import paths to compiled export-data
// files, the importer's lookup table.
type ExportIndex map[string]string

// LoadExportIndex builds the export index for the patterns' full
// dependency closure, including test dependencies. dir is the module
// root the `go list` runs in. The index keeps the bracketed test
// variants ("dep [pkg.test]") under their listed names, beside the plain
// export the rest of the graph links against.
func LoadExportIndex(dir string, patterns ...string) (ExportIndex, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export", "-test"}, patterns...)
	pkgs, err := goList(dir, args)
	if err != nil {
		return nil, err
	}
	idx := ExportIndex{}
	for _, p := range pkgs {
		if p.Export != "" {
			idx[p.ImportPath] = p.Export
		}
	}
	return idx, nil
}

// Importer returns a types.Importer resolving through the index. A
// non-empty forTest names the package whose external test is being
// checked: each import then resolves to its "[forTest.test]" variant
// where `go list -test` built one (forTest itself with its _test.go
// files, export_test.go included, and every dependency recompiled
// against it), as cmd/go links that test.
func (idx ExportIndex) Importer(fset *token.FileSet, forTest string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := idx[path+" ["+forTest+".test]"]
		if forTest == "" || !ok {
			f, ok = idx[path]
		}
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not in the loaded dependency closure)", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// Load type-checks the packages matching the patterns (module-local
// syntax, export-data dependencies). withTests folds each package's
// _test.go files into its unit and adds external _test packages as
// their own units.
func Load(dir string, withTests bool, patterns ...string) ([]*Package, error) {
	idx, err := LoadExportIndex(dir, patterns...)
	if err != nil {
		return nil, err
	}
	args := append([]string{"list", "-json=ImportPath,Name,Dir,GoFiles,CgoFiles,TestGoFiles,XTestGoFiles"}, patterns...)
	pkgs, err := goList(dir, args)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := idx.Importer(fset, "")
	var out []*Package
	for _, p := range pkgs {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("analysis: %s uses cgo, which this loader does not support", p.ImportPath)
		}
		files := absFiles(p.Dir, p.GoFiles)
		if withTests {
			files = append(files, absFiles(p.Dir, p.TestGoFiles)...)
		}
		if len(files) > 0 {
			u, err := checkUnit(fset, imp, p.ImportPath, files)
			if err != nil {
				return nil, err
			}
			out = append(out, u)
		}
		if withTests && len(p.XTestGoFiles) > 0 {
			ximp := idx.Importer(fset, p.ImportPath)
			u, err := checkUnit(fset, ximp, p.ImportPath+"_test", absFiles(p.Dir, p.XTestGoFiles))
			if err != nil {
				return nil, err
			}
			out = append(out, u)
		}
	}
	return out, nil
}

// CheckFiles type-checks one ad-hoc unit (the analysistest fixture
// path: sources outside the module's package graph, dependencies from
// the index).
func CheckFiles(fset *token.FileSet, idx ExportIndex, pkgPath string, files []string) (*Package, error) {
	return checkUnit(fset, idx.Importer(fset, ""), pkgPath, files)
}

func checkUnit(fset *token.FileSet, imp types.Importer, pkgPath string, files []string) (*Package, error) {
	var parsed []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		parsed = append(parsed, af)
	}
	u := &Package{PkgPath: pkgPath, Fset: fset, Files: parsed}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { u.TypeErrors = append(u.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(pkgPath, fset, parsed, info) // errors collected via conf.Error
	u.Types, u.Info = tpkg, info
	if len(parsed) > 0 {
		u.Name = parsed[0].Name.Name
	}
	return u, nil
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
