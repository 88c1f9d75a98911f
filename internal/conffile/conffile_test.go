package conffile

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

const sampleEquals = `# database config
port = 3306
; old-style comment
max_connections = 151

[section]
datadir = /var/lib/db
`

func TestParseEquals(t *testing.T) {
	f, err := Parse(sampleEquals, SyntaxEquals)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := f.Get("port"); !ok || v != "3306" {
		t.Errorf("port = %q,%v", v, ok)
	}
	if v, ok := f.Get("datadir"); !ok || v != "/var/lib/db" {
		t.Errorf("datadir = %q,%v", v, ok)
	}
	if _, ok := f.Get("missing"); ok {
		t.Error("missing key should not resolve")
	}
	if keys := f.Keys(); len(keys) != 3 {
		t.Errorf("keys = %v, want 3", keys)
	}
}

func TestParseSpace(t *testing.T) {
	src := "Listen 8080\nServerName www.example.com\nKeepAlive\n"
	f, err := Parse(src, SyntaxSpace)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Get("Listen"); v != "8080" {
		t.Errorf("Listen = %q", v)
	}
	if v, _ := f.Get("ServerName"); v != "www.example.com" {
		t.Errorf("ServerName = %q", v)
	}
	// A bare directive is a boolean flag.
	if v, _ := f.Get("KeepAlive"); v != "on" {
		t.Errorf("bare directive = %q, want on", v)
	}
}

func TestRoundTripPreservesComments(t *testing.T) {
	f, err := Parse(sampleEquals, SyntaxEquals)
	if err != nil {
		t.Fatal(err)
	}
	out := f.String()
	for _, want := range []string{"# database config", "; old-style comment", "[section]"} {
		if !strings.Contains(out, want) {
			t.Errorf("serialization lost %q:\n%s", want, out)
		}
	}
	// Parse the serialization again: same directives.
	f2, err := Parse(out, SyntaxEquals)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(f, f2); len(d) != 0 {
		t.Errorf("round-trip diff: %v", d)
	}
}

func TestSetReplacesAndAppends(t *testing.T) {
	f, _ := Parse("a = 1\n", SyntaxEquals)
	f.Set("a", "2")
	if v, _ := f.Get("a"); v != "2" {
		t.Errorf("a = %q after Set", v)
	}
	f.Set("b", "3")
	if v, ok := f.Get("b"); !ok || v != "3" {
		t.Errorf("b = %q,%v after append", v, ok)
	}
	if n := len(f.Keys()); n != 2 {
		t.Errorf("keys = %d, want 2", n)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	f, _ := Parse("a = 1\n", SyntaxEquals)
	c := f.Clone()
	c.Set("a", "99")
	if v, _ := f.Get("a"); v != "1" {
		t.Errorf("mutating the clone changed the original: a = %q", v)
	}
}

func TestLineOf(t *testing.T) {
	f, _ := Parse("# c\na = 1\nb = 2\n", SyntaxEquals)
	if n, ok := f.LineOf("b"); !ok || n != 3 {
		t.Errorf("LineOf(b) = %d,%v want 3", n, ok)
	}
}

func TestDiff(t *testing.T) {
	a, _ := Parse("x = 1\ny = 2\n", SyntaxEquals)
	b := a.Clone()
	b.Set("y", "3")
	b.Set("z", "4")
	d := Diff(a, b)
	if len(d) != 2 || d[0] != "y" || d[1] != "z" {
		t.Errorf("Diff = %v, want [y z]", d)
	}
}

// Property: for generated key/value maps, building a file via Set and
// re-parsing its serialization preserves every pair, in both syntaxes.
func TestPropertySetParseRoundTrip(t *testing.T) {
	check := func(syntax Syntax) func(keys [8]uint16, vals [8]uint16) bool {
		return func(keys [8]uint16, vals [8]uint16) bool {
			f, _ := Parse("", syntax)
			want := map[string]string{}
			for i := range keys {
				k := fmt.Sprintf("key_%d", keys[i])
				v := fmt.Sprintf("v%d", vals[i])
				f.Set(k, v)
				want[k] = v
			}
			g, err := Parse(f.String(), syntax)
			if err != nil {
				return false
			}
			got := g.Map()
			if len(got) != len(want) {
				return false
			}
			for k, v := range want {
				if got[k] != v {
					return false
				}
			}
			return true
		}
	}
	if err := quick.Check(check(SyntaxEquals), nil); err != nil {
		t.Errorf("equals syntax: %v", err)
	}
	if err := quick.Check(check(SyntaxSpace), nil); err != nil {
		t.Errorf("space syntax: %v", err)
	}
}

// Property: Diff(f, f.Clone()) is always empty.
func TestPropertyCloneDiffEmpty(t *testing.T) {
	f := func(keys [6]uint8) bool {
		file, _ := Parse("", SyntaxEquals)
		for i, k := range keys {
			file.Set(fmt.Sprintf("k%d", k), fmt.Sprintf("%d", i))
		}
		return len(Diff(file, file.Clone())) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnparseableLinePreserved(t *testing.T) {
	src := "a = 1\n!!!garbage!!!\nb = 2\n"
	f, err := Parse(src, SyntaxEquals)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.String(), "!!!garbage!!!") {
		t.Error("unparseable line dropped by serialization")
	}
	if len(f.Keys()) != 2 {
		t.Errorf("keys = %v", f.Keys())
	}
}
