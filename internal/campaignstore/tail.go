package campaignstore

import (
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"spex/internal/constraint"
	"spex/internal/inject"
)

// decodeTail parses tail, the bytes json.Marshal(inject.Outcome) writes
// after the Misconf member and its comma,
//
//	"Reaction":…,"Pinpointed":…,"FailedTest":…,"LogDump":…,
//	"Loc":{"File":…,"Line":…,"Func":…},"SimCost":…,"Err":…,
//	"Skipped":…,"Yielded":…}
//
// into out's other fields, without reflection. It accepts each member's
// exact key, in field order, with no whitespace; integers
// -?(0|[1-9][0-9]*) of at most 18 digits; true and false; strings of
// valid UTF-8 without control bytes whose only escapes are \" \\ \/ \b
// \f \n \r \t and a \u of four hex digits, of either case, naming a
// non-surrogate; nothing after the closing brace. That is what
// json.Marshal writes there, but for an integer of 19 digits, and some
// bytes it never writes: -0, \/, upper-case hex and a \u of a rune
// json.Marshal writes as itself. For anything else (an exponent, a
// leading zero, null, another or a repeated key, a lone surrogate,
// invalid UTF-8, whitespace) it reports false with out untouched, and
// the caller takes the full decode. What it accepts, json.Unmarshal
// reads the same way.
//
// loc is the misconfiguration's constraint location, which an outcome's
// Loc repeats: a File or Func equal to loc's is loc's own string, so it
// costs no allocation.
func decodeTail(tail []byte, loc constraint.SourceLoc, out *inject.Outcome) bool {
	p := tailParser{b: tail}
	var o inject.Outcome
	p.lit(`"Reaction":`)
	o.Reaction = inject.Reaction(p.int())
	p.lit(`,"Pinpointed":`)
	o.Pinpointed = p.bool()
	p.lit(`,"FailedTest":`)
	o.FailedTest = p.str("")
	p.lit(`,"LogDump":`)
	o.LogDump = p.str("")
	p.lit(`,"Loc":{"File":`)
	o.Loc.File = p.str(loc.File)
	p.lit(`,"Line":`)
	o.Loc.Line = p.int()
	p.lit(`,"Func":`)
	o.Loc.Func = p.str(loc.Func)
	p.lit(`},"SimCost":`)
	o.SimCost = p.int()
	p.lit(`,"Err":`)
	o.Err = p.str("")
	p.lit(`,"Skipped":`)
	o.Skipped = p.bool()
	p.lit(`,"Yielded":`)
	o.Yielded = p.bool()
	p.lit(`}`)
	if p.bad || len(p.b) > 0 {
		return false
	}
	*out = o
	return true
}

// tailParser reads a tail front to back. bad sticks once a step fails,
// and every later step is then a no-op.
type tailParser struct {
	b   []byte
	bad bool
}

// lit consumes s, which must come next.
func (p *tailParser) lit(s string) {
	if !p.bad && len(p.b) >= len(s) && string(p.b[:len(s)]) == s {
		p.b = p.b[len(s):]
		return
	}
	p.bad = true
}

// bool reads true or false.
func (p *tailParser) bool() bool {
	if !p.bad && len(p.b) > 0 && p.b[0] == 't' {
		p.lit("true")
		return !p.bad
	}
	p.lit("false")
	return false
}

// int reads -?(0|[1-9][0-9]*) of at most 18 digits, which an int64
// holds exactly; a narrower int must hold it too.
func (p *tailParser) int() int {
	if p.bad {
		return 0
	}
	b := p.b
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	n, v := 0, int64(0)
	for ; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
		v = v*10 + int64(b[n]-'0')
	}
	if n == 0 || n > 18 || (n > 1 && b[0] == '0') || int64(int(v)) != v {
		p.bad = true
		return 0
	}
	if neg {
		v = -v
	}
	p.b = b[n:]
	return int(v)
}

// str reads a string. One equal to known is known itself.
func (p *tailParser) str(known string) string {
	if p.bad || len(p.b) == 0 || p.b[0] != '"' {
		p.bad = true
		return ""
	}
	b := p.b[1:]
	// The closing quote is the first one no backslash escapes.
	end := 0
	for ; end < len(b) && b[end] != '"'; end++ {
		if b[end] == '\\' {
			end++
		}
	}
	if end >= len(b) {
		p.bad = true
		return ""
	}
	raw := b[:end]
	p.b = b[end+1:]
	if string(raw) == known && plainPrefix(raw) == len(raw) {
		return known
	}
	var s strings.Builder
	s.Grow(len(raw)) // unescaping only shrinks
	for {
		n := plainPrefix(raw)
		s.Write(raw[:n])
		if raw = raw[n:]; len(raw) == 0 {
			return s.String()
		}
		// raw opens with a backslash, a control byte or invalid UTF-8.
		if raw[0] != '\\' || len(raw) < 2 {
			break
		}
		if c := unescaped[raw[1]]; c != 0 {
			s.WriteByte(c)
			raw = raw[2:]
			continue
		}
		if raw[1] != 'u' {
			break
		}
		r, ok := hex4(raw[2:])
		if !ok || utf16.IsSurrogate(r) {
			break
		}
		s.WriteRune(r)
		raw = raw[6:]
	}
	p.bad = true
	return ""
}

// unescaped maps the byte after a backslash to the byte the escape
// stands for, for every escape but \u; 0 marks the rest.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// plainPrefix is the length of b's longest prefix that a JSON string
// holds as is: valid UTF-8 without a quote, a backslash or a control
// byte.
func plainPrefix(b []byte) int {
	i := 0
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			return i
		}
		i += size
	}
	return i
}

// hex4 reads the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
