package conffile

import (
	"fmt"
	"reflect"
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
	if !reflect.DeepEqual(f.Map(), f2.Map()) {
		t.Errorf("round trip changed the directives: %v, want %v", f2.Map(), f.Map())
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

// TestDuplicateKeysAddressFirstDirective: Get, Set and LineOf address a
// repeated key's first directive, on a parsed file and on its clone, and
// a clone's Set of an absent key leaves the original as it was.
func TestDuplicateKeysAddressFirstDirective(t *testing.T) {
	const src = "a = 1\n# c\nb = 2\na = 3\n"
	parse := func() *File {
		f, err := Parse(src, SyntaxEquals)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for name, f := range map[string]*File{"parsed": parse(), "clone": parse().Clone()} {
		if v, ok := f.Get("a"); !ok || v != "1" {
			t.Errorf("%s: Get(a) = %q,%v, want the first directive's 1", name, v, ok)
		}
		if n, ok := f.LineOf("a"); !ok || n != 1 {
			t.Errorf("%s: LineOf(a) = %d,%v, want 1", name, n, ok)
		}
		f.Set("a", "9")
		if got, want := f.String(), "a = 9\n# c\nb = 2\na = 3\n"; got != want {
			t.Errorf("%s: after Set(a, 9):\n%s\nwant\n%s", name, got, want)
		}
		if v, _ := f.Get("a"); v != "9" {
			t.Errorf("%s: Get(a) = %q after Set(a, 9)", name, v)
		}
	}

	f := parse()
	c := f.Clone()
	c.Set("z", "4")
	if v, ok := c.Get("z"); !ok || v != "4" {
		t.Errorf("clone: Get(z) = %q,%v after Set(z, 4)", v, ok)
	}
	if v, ok := f.Get("z"); ok {
		t.Errorf("the clone's Set(z, 4) reached the original: Get(z) = %q", v)
	}
	if keys := f.Keys(); strings.Join(keys, ",") != "a,b" {
		t.Errorf("original Keys() = %v after the clone's Set, want [a b]", keys)
	}
	if got := f.String(); got != src {
		t.Errorf("original renders\n%s\nafter the clone's Set, want\n%s", got, src)
	}
}

func TestLineOf(t *testing.T) {
	f, _ := Parse("# c\na = 1\nb = 2\n", SyntaxEquals)
	if n, ok := f.LineOf("b"); !ok || n != 3 {
		t.Errorf("LineOf(b) = %d,%v want 3", n, ok)
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

// Property: f.Clone() always holds f's directives.
func TestPropertyCloneDiffEmpty(t *testing.T) {
	f := func(keys [6]uint8) bool {
		file, _ := Parse("", SyntaxEquals)
		for i, k := range keys {
			file.Set(fmt.Sprintf("k%d", k), fmt.Sprintf("%d", i))
		}
		return reflect.DeepEqual(file.Map(), file.Clone().Map())
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
