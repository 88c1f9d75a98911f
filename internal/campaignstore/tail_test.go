package campaignstore

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"spex/internal/constraint"
	"spex/internal/inject"
)

// marshalledTail is json.Marshal(o) after its Misconf member and comma.
func marshalledTail(t *testing.T, o inject.Outcome) []byte {
	t.Helper()
	b := mustMarshal(t, o)
	i := bytes.Index(b, []byte(`,"Reaction":`))
	if i < 0 {
		t.Fatalf("no Reaction member in %s", b)
	}
	return b[i+1:]
}

// unmarshalTail is what the plain decoder reads from a tail: "{" + tail.
func unmarshalTail(tail []byte) (inject.Outcome, error) {
	var o inject.Outcome
	err := json.Unmarshal(append([]byte("{"), tail...), &o)
	return o, err
}

// TestDecodeTailReadsMarshalOutput: every tail json.Marshal writes takes
// the strict parse and reads as json.Unmarshal reads it, escapes, HTML
// and line-separator escapes, non-ASCII text and extreme integers
// included; a File and Func equal to the misconfiguration's location are
// its own strings.
func TestDecodeTailReadsMarshalOutput(t *testing.T) {
	loc := constraint.SourceLoc{File: "cfg.c", Line: 10, Func: "parse"}
	for name, o := range map[string]inject.Outcome{
		"zero": {},
		"failure": {Reaction: inject.ReactionFuncFailure, FailedTest: "ping",
			LogDump: "ERR request failed\n", Loc: loc, SimCost: 7},
		"escapes":             {Pinpointed: true, LogDump: "a \"quoted\" \\path\\ \t tab\r\n\b\f\x01\x1f end\n", Loc: loc},
		"html and separators": {LogDump: "<b>&amp;</b> \u2028 \u2029", Err: "x > y"},
		"non-ASCII":           {FailedTest: "héllo", LogDump: "日本語 😀 \ufffd", Loc: constraint.SourceLoc{File: "ü.c", Func: "ƒ"}},
		"invalid UTF-8":       {LogDump: "bad \xff\xfe byte"},
		"flags":               {Reaction: inject.ReactionTolerated, Skipped: true, Yielded: true, Err: "context canceled"},
		"extreme integers":    {Reaction: -1, SimCost: 999_999_999_999_999_999, Loc: constraint.SourceLoc{Line: -999_999_999_999_999_999}},
	} {
		t.Run(name, func(t *testing.T) {
			tail := marshalledTail(t, o)
			want, err := unmarshalTail(tail)
			if err != nil {
				t.Fatal(err)
			}
			var got inject.Outcome
			if !decodeTail(tail, loc, &got) {
				t.Fatalf("strict parse refused json.Marshal's tail %s", tail)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("strict parse read\n%+v\njson.Unmarshal read\n%+v", got, want)
			}
			if o.Loc == loc && (!sameString(got.Loc.File, loc.File) || !sameString(got.Loc.Func, loc.Func)) {
				t.Error("a location equal to the misconfiguration's is a copy")
			}
		})
	}
}

// sameString reports whether a and b are the same bytes in memory.
func sameString(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// TestDecodeTailReadsOtherSpellings: spellings json.Marshal does not
// write but the strict parse admits (-0, \/, upper-case hex) read as
// json.Unmarshal reads them.
func TestDecodeTailReadsOtherSpellings(t *testing.T) {
	good := string(marshalledTail(t, inject.Outcome{SimCost: 3, LogDump: "x"}))
	for _, tail := range []string{
		strings.Replace(good, `"SimCost":3`, `"SimCost":-0`, 1),
		strings.Replace(good, `"LogDump":"x"`, `"LogDump":"a\/b\u00E9\u00e9\u0000"`, 1),
	} {
		want, err := unmarshalTail([]byte(tail))
		if err != nil {
			t.Fatal(err)
		}
		var got inject.Outcome
		if !decodeTail([]byte(tail), constraint.SourceLoc{}, &got) || !reflect.DeepEqual(got, want) {
			t.Errorf("tail %s: strict parse read %+v, json.Unmarshal %+v", tail, got, want)
		}
	}
}

// TestDecodeTailRefusesOtherBytes: a tail json.Marshal would not write
// is refused with the outcome untouched, whether json.Unmarshal accepts
// it or not.
func TestDecodeTailRefusesOtherBytes(t *testing.T) {
	good := string(marshalledTail(t, inject.Outcome{Reaction: 2, FailedTest: "ping", LogDump: "x", SimCost: 3,
		Loc: constraint.SourceLoc{File: "f.c", Line: 4, Func: "g"}}))
	for name, tail := range map[string]string{
		"space after a colon":   strings.Replace(good, `"Reaction":2`, `"Reaction": 2`, 1),
		"newline before brace":  strings.Replace(good, `false}`, "false\n}", 1),
		"case-variant key":      strings.Replace(good, `"Reaction"`, `"reaction"`, 1),
		"repeated key":          strings.Replace(good, `"Err":""`, `"Err":"","Err":"x"`, 1),
		"unknown key":           strings.Replace(good, `"Err":""`, `"Err":"","Extra":1`, 1),
		"missing key":           strings.Replace(good, `"Pinpointed":false,`, ``, 1),
		"trailing space":        good + " ",
		"trailing bytes":        good + "x",
		"negative zero padded":  strings.Replace(good, `"SimCost":3`, `"SimCost":-03`, 1),
		"leading zero":          strings.Replace(good, `"Line":4`, `"Line":04`, 1),
		"exponent":              strings.Replace(good, `"SimCost":3`, `"SimCost":1e2`, 1),
		"fraction":              strings.Replace(good, `"SimCost":3`, `"SimCost":3.0`, 1),
		"19 digits":             strings.Replace(good, `"SimCost":3`, `"SimCost":1000000000000000000`, 1),
		"bare minus":            strings.Replace(good, `"SimCost":3`, `"SimCost":-`, 1),
		"null string":           strings.Replace(good, `"Err":""`, `"Err":null`, 1),
		"null bool":             strings.Replace(good, `"Skipped":false`, `"Skipped":null`, 1),
		"capitalised bool":      strings.Replace(good, `"Skipped":false`, `"Skipped":False`, 1),
		"lone surrogate":        strings.Replace(good, `"LogDump":"x"`, `"LogDump":"\ud800"`, 1),
		"surrogate pair":        strings.Replace(good, `"LogDump":"x"`, `"LogDump":"\ud83d\ude00"`, 1),
		"invalid UTF-8":         strings.Replace(good, `"LogDump":"x"`, "\"LogDump\":\"\xff\"", 1),
		"raw control byte":      strings.Replace(good, `"LogDump":"x"`, "\"LogDump\":\"a\nb\"", 1),
		"unknown escape":        strings.Replace(good, `"LogDump":"x"`, `"LogDump":"\x"`, 1),
		"short unicode escape":  strings.Replace(good, `"LogDump":"x"`, `"LogDump":"\u12"`, 1),
		"unterminated string":   good[:strings.Index(good, `"LogDump":"x"`)+len(`"LogDump":"x`)],
		"escaped closing quote": strings.Replace(good, `"LogDump":"x"`, `"LogDump":"x\"`, 1),
		"empty":                 "",
	} {
		t.Run(name, func(t *testing.T) {
			out := inject.Outcome{FailedTest: "untouched"}
			if decodeTail([]byte(tail), constraint.SourceLoc{}, &out) {
				t.Fatalf("strict parse accepted %s", tail)
			}
			if out.FailedTest != "untouched" {
				t.Error("a refused tail wrote the outcome")
			}
		})
	}
}
