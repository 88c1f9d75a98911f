package analysis

import (
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadSeesExportTest: an external test package is type-checked
// against its package's test variant, as cmd/go links it, so the names
// an export_test.go declares resolve, also through a dependency that
// go list recompiles against that variant.
func TestLoadSeesExportTest(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":           "module example.com/m\n\ngo 1.21\n",
		"p/p.go":           "package p\n\ntype V int\n\nfunc hidden() int { return 1 }\n",
		"p/export_test.go": "package p\n\nvar Hidden = hidden\n",
		"q/q.go":           "package q\n\nimport \"example.com/m/p\"\n\nfunc Of(v p.V) int { return int(v) }\n",
		"p/p_test.go": `package p_test

import (
	"testing"

	"example.com/m/p"
	"example.com/m/q"
)

func TestHidden(t *testing.T) {
	if q.Of(p.V(p.Hidden())) != 1 {
		t.Fatal("hidden")
	}
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	units, err := Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	external := false
	for _, u := range units {
		for _, e := range u.Errors {
			t.Errorf("%s: type error: %v", u.PkgPath, e)
		}
		external = external || u.PkgPath == "example.com/m/p_test"
	}
	if !external {
		t.Errorf("loaded %d units, none of them p's external test", len(units))
	}
}

// TestLoadTakesTestUnitsFromTheListing: the units are go list's own
// test variants. outcomeindex has in-package tests, so its one unit is
// its test variant with the _test.go files folded in; targets has only
// external tests, so it stays plain. Each external test is a unit, and
// no test main or second plain outcomeindex is.
func TestLoadTakesTestUnitsFromTheListing(t *testing.T) {
	units, err := Load(".", "spex/internal/outcomeindex", "spex/internal/targets")
	if err != nil {
		t.Fatal(err)
	}
	tests := map[string]int{} // unit -> its _test.go files
	for _, u := range units {
		for _, e := range u.Errors {
			t.Errorf("%s: %v", u.PkgPath, e)
		}
		if _, dup := tests[u.PkgPath]; dup {
			t.Errorf("%s loaded twice", u.PkgPath)
		}
		tests[u.PkgPath] = 0
		for _, f := range u.Files {
			if strings.HasSuffix(u.Fset.File(f.Pos()).Name(), "_test.go") {
				tests[u.PkgPath]++
			}
		}
	}
	want := map[string]int{
		"spex/internal/outcomeindex":      3,
		"spex/internal/outcomeindex_test": 1,
		"spex/internal/targets":           0,
		"spex/internal/targets_test":      2,
	}
	if !maps.Equal(tests, want) {
		t.Errorf("units and their _test.go file counts = %v, want %v", tests, want)
	}
}
