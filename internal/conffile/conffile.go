// Package conffile implements a ConfErr-style abstract representation (AR)
// of configuration files (paper §3.1). A template configuration file is
// parsed into an AR, the injector mutates parameter values in the AR, and
// the AR is serialized back into a usable configuration file for testing.
//
// Two widespread syntaxes are supported, covering the evaluated systems:
//
//	key = value     (MySQL/PostgreSQL/Storage-A style; SyntaxEquals)
//	key value       (Apache/Squid/VSFTP/OpenLDAP style; SyntaxSpace)
//
// Comments (# or ;) and blank lines are preserved verbatim so the emitted
// file differs from the template only in the injected values.
package conffile

import (
	"fmt"
	"sort"
	"strings"
)

// Syntax selects the directive syntax of a configuration file.
type Syntax int

const (
	// SyntaxEquals parses "key = value" directives.
	SyntaxEquals Syntax = iota
	// SyntaxSpace parses "key value..." directives.
	SyntaxSpace
)

func (s Syntax) String() string {
	if s == SyntaxEquals {
		return "key=value"
	}
	return "key value"
}

// LineKind distinguishes AR line types.
type LineKind int

const (
	// LineDirective is a parameter assignment.
	LineDirective LineKind = iota
	// LineComment is a comment line, preserved verbatim.
	LineComment
	// LineBlank is an empty line.
	LineBlank
	// LineSection is an INI-style [section] header, preserved verbatim.
	LineSection
)

// Line is one line of the abstract representation.
type Line struct {
	Kind  LineKind
	Key   string // directive key (LineDirective only)
	Value string // directive value (LineDirective only)
	Raw   string // original text for comments/blank/section lines
	Num   int    // 1-based line number in the template
}

// File is the abstract representation of one configuration file.
type File struct {
	Syntax Syntax
	Lines  []Line
	index  map[string][]int // key -> line indices (first wins on Get)
}

// Parse parses src into an AR using the given syntax. Unparseable directive
// lines are preserved as comments so serialization is lossless; Parse never
// fails on well-formed template files shipped with the targets.
func Parse(src string, syntax Syntax) (*File, error) {
	f := &File{Syntax: syntax, index: make(map[string][]int)}
	lines := strings.Split(src, "\n")
	// A trailing newline yields one empty trailing element; drop it so
	// String() round-trips.
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	for i, raw := range lines {
		num := i + 1
		trimmed := strings.TrimSpace(raw)
		switch {
		case trimmed == "":
			f.Lines = append(f.Lines, Line{Kind: LineBlank, Raw: raw, Num: num})
		case strings.HasPrefix(trimmed, "#") || strings.HasPrefix(trimmed, ";"):
			f.Lines = append(f.Lines, Line{Kind: LineComment, Raw: raw, Num: num})
		case strings.HasPrefix(trimmed, "[") && strings.HasSuffix(trimmed, "]"):
			f.Lines = append(f.Lines, Line{Kind: LineSection, Raw: raw, Num: num})
		default:
			key, val, ok := splitDirective(trimmed, syntax)
			if !ok {
				f.Lines = append(f.Lines, Line{Kind: LineComment, Raw: raw, Num: num})
				continue
			}
			idx := len(f.Lines)
			f.Lines = append(f.Lines, Line{Kind: LineDirective, Key: key, Value: val, Num: num})
			f.index[key] = append(f.index[key], idx)
		}
	}
	return f, nil
}

func splitDirective(s string, syntax Syntax) (key, val string, ok bool) {
	switch syntax {
	case SyntaxEquals:
		eq := strings.Index(s, "=")
		if eq < 0 {
			return "", "", false
		}
		return strings.TrimSpace(s[:eq]), strings.TrimSpace(s[eq+1:]), true
	default: // SyntaxSpace
		sp := strings.IndexAny(s, " \t")
		if sp < 0 {
			// A bare directive acts as a boolean flag set to "on".
			return s, "on", true
		}
		return s[:sp], strings.TrimSpace(s[sp+1:]), true
	}
}

// Get returns the value of the first directive with the given key.
func (f *File) Get(key string) (string, bool) {
	idxs, ok := f.index[key]
	if !ok || len(idxs) == 0 {
		return "", false
	}
	return f.Lines[idxs[0]].Value, true
}

// Set replaces the value of key, or appends a new directive if absent.
func (f *File) Set(key, value string) {
	if idxs, ok := f.index[key]; ok && len(idxs) > 0 {
		f.Lines[idxs[0]].Value = value
		return
	}
	idx := len(f.Lines)
	f.Lines = append(f.Lines, Line{Kind: LineDirective, Key: key, Value: value, Num: idx + 1})
	f.index[key] = append(f.index[key], idx)
}

func (f *File) reindex() {
	f.index = make(map[string][]int)
	for i, ln := range f.Lines {
		if ln.Kind == LineDirective {
			f.index[ln.Key] = append(f.index[ln.Key], i)
		}
	}
}

// LineOf returns the template line number of the first directive for key.
func (f *File) LineOf(key string) (int, bool) {
	idxs, ok := f.index[key]
	if !ok || len(idxs) == 0 {
		return 0, false
	}
	return f.Lines[idxs[0]].Num, true
}

// Keys returns all directive keys in file order (first occurrence).
func (f *File) Keys() []string {
	var out []string
	seen := make(map[string]bool)
	for _, ln := range f.Lines {
		if ln.Kind == LineDirective && !seen[ln.Key] {
			seen[ln.Key] = true
			out = append(out, ln.Key)
		}
	}
	return out
}

// Map returns directive key/value pairs (first occurrence wins).
func (f *File) Map() map[string]string {
	m := make(map[string]string)
	for _, ln := range f.Lines {
		if ln.Kind == LineDirective {
			if _, ok := m[ln.Key]; !ok {
				m[ln.Key] = ln.Value
			}
		}
	}
	return m
}

// Clone returns a deep copy of the AR, suitable for mutation by the
// injector while keeping the template intact.
func (f *File) Clone() *File {
	nf := &File{Syntax: f.Syntax, Lines: make([]Line, len(f.Lines))}
	copy(nf.Lines, f.Lines)
	nf.reindex()
	return nf
}

// String serializes the AR back to configuration-file text.
func (f *File) String() string {
	var b strings.Builder
	for i, ln := range f.Lines {
		if i > 0 {
			b.WriteByte('\n')
		}
		switch ln.Kind {
		case LineDirective:
			if f.Syntax == SyntaxEquals {
				fmt.Fprintf(&b, "%s = %s", ln.Key, ln.Value)
			} else {
				fmt.Fprintf(&b, "%s %s", ln.Key, ln.Value)
			}
		default:
			b.WriteString(ln.Raw)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// Diff returns the keys whose values differ between two ARs, sorted.
func Diff(a, b *File) []string {
	am, bm := a.Map(), b.Map()
	var out []string
	for k, av := range am {
		if bv, ok := bm[k]; !ok || bv != av {
			out = append(out, k)
		}
	}
	for k := range bm {
		if _, ok := am[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
