// Package apispec is SPEX's knowledge base of known APIs (paper §2.2.2).
// Semantic-type constraints are inferred when a parameter's data flow
// reaches a known function: its argument positions carry semantic types
// (FILE, PORT, TIMEOUT, ...), measurement units, and case-sensitivity
// semantics. The base contains the standard-library analogues used by the
// simulated targets; targets may import their own library APIs, mirroring
// the paper's customization hook for Storage-A's proprietary APIs.
package apispec

import (
	"strings"

	"spex/internal/constraint"
)

// ArgSpec describes one argument position of a known function.
type ArgSpec struct {
	Index    int
	Semantic constraint.SemanticType
	Unit     constraint.Unit
}

// FuncSpec describes one known function or method.
type FuncSpec struct {
	// Name matches the resolved call name. Three forms are accepted:
	//   "pkg.Func"      package-level function (e.g. "strconv.Atoi")
	//   "Recv.Method"   method, matched on the final two selector parts
	//                   (e.g. "FS.ReadFile" matches env.FS.ReadFile)
	//   "func"          package-local helper (e.g. "atoi")
	Name string
	Args []ArgSpec
	// RetBasic is the basic type produced by the call (e.g. strconv.Atoi
	// produces an integer), used by basic-type inference on
	// transformation APIs.
	RetBasic constraint.BasicType
	// Unsafe marks error-prone transformation APIs in configuration
	// parsing (atoi/sscanf analogues, paper §3.2 "Unsafe APIs").
	Unsafe bool
	// CaseInsensitive marks string-comparison functions with
	// case-insensitive semantics (strcasecmp analogue). Functions with
	// Compare=true and CaseInsensitive=false are case sensitive.
	Compare         bool
	CaseInsensitive bool
}

// ArgAt returns the spec for argument index i, if any.
func (f *FuncSpec) ArgAt(i int) (ArgSpec, bool) {
	for _, a := range f.Args {
		if a.Index == i {
			return a, true
		}
	}
	return ArgSpec{}, false
}

// DB is a registry of known functions.
type DB struct {
	funcs map[string]*FuncSpec
}

// New returns a DB preloaded with the standard knowledge base.
func New() *DB {
	db := &DB{funcs: make(map[string]*FuncSpec)}
	for i := range builtins {
		db.Register(&builtins[i])
	}
	return db
}

// Register adds or replaces a function spec. This is the "import your own
// library APIs" hook the paper provides for proprietary code.
func (db *DB) Register(f *FuncSpec) { db.funcs[f.Name] = f }

// Lookup resolves a call name to a spec. For dotted names the full name is
// tried first, then the "Recv.Method" suffix, then the bare method name.
func (db *DB) Lookup(name string) (*FuncSpec, bool) {
	if f, ok := db.funcs[name]; ok {
		return f, true
	}
	parts := strings.Split(name, ".")
	if len(parts) >= 2 {
		suffix := strings.Join(parts[len(parts)-2:], ".")
		if f, ok := db.funcs[suffix]; ok {
			return f, true
		}
	}
	if len(parts) >= 1 {
		if f, ok := db.funcs[parts[len(parts)-1]]; ok && strings.Contains(f.Name, ".") == false {
			return f, true
		}
	}
	return nil, false
}

// builtins is the standard knowledge base: the vfs/vnet/simlog substrate
// APIs (the targets' "system calls"), the strconv/strings/fmt/time standard
// library, and common parsing helpers.
var builtins = []FuncSpec{
	// --- Virtual file system (open/stat analogues). ---
	{Name: "FS.ReadFile", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemFile}}},
	{Name: "FS.WriteFile", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemFile}}},
	{Name: "FS.Append", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemFile}}},
	{Name: "FS.Stat", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemPath}}},
	{Name: "FS.Exists", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemPath}}},
	{Name: "FS.IsDir", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemDirectory}}},
	{Name: "FS.List", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemDirectory}}},
	{Name: "FS.MkdirAll", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemDirectory}}},
	{Name: "FS.Chmod", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemFile}, {Index: 1, Semantic: constraint.SemPerm}}},
	{Name: "FS.Remove", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemPath}}},

	// --- Virtual network (socket analogues). ---
	{Name: "Net.Bind", Args: []ArgSpec{{Index: 1, Semantic: constraint.SemPort}}},
	{Name: "Net.Occupied", Args: []ArgSpec{{Index: 1, Semantic: constraint.SemPort}}},
	{Name: "Net.Release", Args: []ArgSpec{{Index: 1, Semantic: constraint.SemPort}}},
	{Name: "vnet.ValidIP", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemIPAddr}}},
	{Name: "vnet.ValidHost", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemHost}}},

	// --- Time (sleep/usleep analogues; the unit comes from the
	// multiplier on the data-flow path, see dataflow unit inference). ---
	{Name: "time.Sleep", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemTimeout, Unit: UnitOfDuration}}},
	{Name: "sleepSeconds", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemTimeout, Unit: constraint.UnitSecond}}},
	{Name: "sleepMillis", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemTimeout, Unit: constraint.UnitMillisecond}}},
	{Name: "sleepMicros", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemTimeout, Unit: constraint.UnitMicrosecond}}},

	// --- Memory / buffer sizing (byte-unit sinks). ---
	{Name: "allocBuffer", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemSize, Unit: constraint.UnitByte}}},
	{Name: "allocPool", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemSize, Unit: constraint.UnitByte}}},

	// --- Identity / access control. ---
	{Name: "lookupUser", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemUser}}},
	{Name: "lookupGroup", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemGroup}}},
	{Name: "checkPassword", Args: []ArgSpec{{Index: 1, Semantic: constraint.SemPassword}}},

	// --- Worker pools / counts. ---
	{Name: "spawnWorkers", Args: []ArgSpec{{Index: 0, Semantic: constraint.SemCount}}},

	// --- String comparison: case sensitivity (strcmp/strcasecmp). ---
	{Name: "strings.EqualFold", Compare: true, CaseInsensitive: true},
	{Name: "strings.Compare", Compare: true},
	{Name: "strings.HasPrefix", Compare: true},

	// --- Transformation APIs. Unsafe ones ignore parse errors
	// (atoi/sscanf analogues); safe ones surface them (strtol-with-
	// errno analogue). ---
	{Name: "atoi", RetBasic: constraint.BasicInt64, Unsafe: true},
	{Name: "atof", RetBasic: constraint.BasicFloat64, Unsafe: true},
	{Name: "parseBool", RetBasic: constraint.BasicBool, Unsafe: true},
	{Name: "fmt.Sscanf", Unsafe: true},
	{Name: "strconv.Atoi", RetBasic: constraint.BasicInt64},
	{Name: "strconv.ParseInt", RetBasic: constraint.BasicInt64},
	{Name: "strconv.ParseUint", RetBasic: constraint.BasicUint64},
	{Name: "strconv.ParseFloat", RetBasic: constraint.BasicFloat64},
	{Name: "strconv.ParseBool", RetBasic: constraint.BasicBool},
}

// UnitOfDuration is a sentinel: the real unit is derived from the constant
// multiplier found on the data-flow path (time.Duration(x)*time.Second =>
// seconds, *time.Millisecond => milliseconds, ...).
const UnitOfDuration = constraint.Unit("duration")

// SizeUnit maps a byte multiplier to the input unit: a parameter multiplied
// by 1024 before reaching a byte-unit API is configured in KB (paper
// Figure 6b, Apache MaxMemFree).
func SizeUnit(multiplier int64) (constraint.Unit, bool) {
	switch multiplier {
	case 1:
		return constraint.UnitByte, true
	case 1024:
		return constraint.UnitKB, true
	case 1024 * 1024:
		return constraint.UnitMB, true
	case 1024 * 1024 * 1024:
		return constraint.UnitGB, true
	}
	return constraint.UnitNone, false
}

// TimeUnitScaled adjusts a time unit by a constant multiplier on the flow
// path: a parameter multiplied by 1000 before a milliseconds API is
// configured in seconds.
func TimeUnitScaled(base constraint.Unit, multiplier int64) (constraint.Unit, bool) {
	order := []constraint.Unit{
		constraint.UnitMicrosecond, constraint.UnitMillisecond,
		constraint.UnitSecond, constraint.UnitMinute, constraint.UnitHour,
	}
	factors := map[constraint.Unit]int64{
		constraint.UnitMicrosecond: 1,
		constraint.UnitMillisecond: 1000,
		constraint.UnitSecond:      1000 * 1000,
		constraint.UnitMinute:      60 * 1000 * 1000,
		constraint.UnitHour:        3600 * 1000 * 1000,
	}
	base64, ok := factors[base]
	if !ok {
		return constraint.UnitNone, false
	}
	want := base64 * multiplier
	for _, u := range order {
		if factors[u] == want {
			return u, true
		}
	}
	return constraint.UnitNone, false
}
