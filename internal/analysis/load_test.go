package analysis

import (
	"os"
	"path/filepath"
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
	units, err := Load(dir, true, "./...")
	if err != nil {
		t.Fatal(err)
	}
	external := false
	for _, u := range units {
		for _, e := range u.TypeErrors {
			t.Errorf("%s: type error: %v", u.PkgPath, e)
		}
		external = external || u.PkgPath == "example.com/m/p_test"
	}
	if !external {
		t.Errorf("loaded %d units, none of them p's external test", len(units))
	}
}
