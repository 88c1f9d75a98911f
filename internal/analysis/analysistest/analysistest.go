// Package analysistest runs one analyzer over a fixture package and
// diffs its diagnostics against `// want "regexp"` comments, the
// golden-test idiom of golang.org/x/tools/go/analysis/analysistest.
// Fixtures live in <analyzer package>/testdata/src/<name>/ and are
// ordinary Go sources that may import the real spex packages. Each is
// loaded through analysis.Load under its own import path, as spexlint
// loads any package; `./...` never matches a testdata directory, so
// the intentional violations inside them never trip the repo-wide
// spexlint run.
package analysistest

import (
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"spex/internal/analysis"
)

// Run checks the analyzer against testdata/src/<fixture> relative to
// the calling test's package directory: every diagnostic must match a
// `// want "regexp"` on its line, and every want must be matched.
func Run(t *testing.T, a *analysis.Analyzer, fixture string) {
	t.Helper()
	units, err := analysis.Load(".", "./testdata/src/"+fixture)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	if len(units) != 1 {
		t.Fatalf("analysistest: fixture %s loaded as %d units, want 1", fixture, len(units))
	}
	unit := units[0]
	for _, e := range unit.Errors {
		t.Errorf("analysistest: fixture does not load: %v", e)
	}
	if t.Failed() {
		t.FailNow()
	}
	diags, err := analysis.RunAnalyzers(unit.Fset, unit.Files, unit.Types, unit.Info, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	matchDiagnostics(t, diags, collectWants(t, unit))
}

// want is one expectation: a diagnostic on (file base name, line)
// whose message matches re.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var wantRE = regexp.MustCompile("(\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

func collectWants(t *testing.T, unit *analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := unit.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllString(text[len("want "):], -1) {
					pat := m
					if strings.HasPrefix(pat, "`") {
						pat = strings.Trim(pat, "`")
					} else if unq, err := strconv.Unquote(pat); err == nil {
						pat = unq
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("analysistest: %s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   re,
						raw:  pat,
					})
				}
			}
		}
	}
	return wants
}

func matchDiagnostics(t *testing.T, diags []analysis.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == base && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s", base, d.Pos.Line, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.hit {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.raw)
		}
	}
}
