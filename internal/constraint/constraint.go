// Package constraint defines the configuration-constraint model inferred by
// SPEX. A constraint for a configuration parameter specifies its data type,
// format, value range, and its dependencies and correlations with other
// parameters — the rules that differentiate correct configurations from
// misconfigurations (paper §2.1).
//
// Constraints are divided into attributes (basic type, semantic type, value
// range), which define correct settings of a single parameter, and
// correlations (control dependency, value relationship), which span multiple
// parameters.
package constraint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates the five constraint classes of the paper (Table 11).
type Kind int

const (
	// KindBasicType constrains the low-level data representation of a
	// parameter: integer width, boolean, float, string, …
	KindBasicType Kind = iota
	// KindSemanticType constrains the high-level meaning of a parameter:
	// file path, port number, timeout, user name, …
	KindSemanticType
	// KindRange constrains acceptable values: numeric intervals or an
	// enumerative list.
	KindRange
	// KindControlDep records that one parameter takes effect only under a
	// condition on another parameter: (P,V,op) -> Q.
	KindControlDep
	// KindValueRel records an ordering or equality relation between the
	// values of two parameters: P op Q.
	KindValueRel
)

var kindNames = [...]string{
	"basic-type", "semantic-type", "data-range", "control-dependency", "value-relationship",
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// BasicType is the low-level representation of a parameter value.
type BasicType int

const (
	BasicUnknown BasicType = iota
	BasicBool
	BasicInt8
	BasicInt16
	BasicInt32
	BasicInt64
	BasicUint8
	BasicUint16
	BasicUint32
	BasicUint64
	BasicFloat32
	BasicFloat64
	BasicString
	BasicChar
)

var basicNames = map[BasicType]string{
	BasicUnknown: "unknown",
	BasicBool:    "bool",
	BasicInt8:    "int8",
	BasicInt16:   "int16",
	BasicInt32:   "int32",
	BasicInt64:   "int64",
	BasicUint8:   "uint8",
	BasicUint16:  "uint16",
	BasicUint32:  "uint32",
	BasicUint64:  "uint64",
	BasicFloat32: "float32",
	BasicFloat64: "float64",
	BasicString:  "string",
	BasicChar:    "char",
}

func (b BasicType) String() string {
	if s, ok := basicNames[b]; ok {
		return s
	}
	return fmt.Sprintf("BasicType(%d)", int(b))
}

// Numeric reports whether the basic type is an integer or floating-point
// number.
func (b BasicType) Numeric() bool {
	switch b {
	case BasicInt8, BasicInt16, BasicInt32, BasicInt64,
		BasicUint8, BasicUint16, BasicUint32, BasicUint64,
		BasicFloat32, BasicFloat64:
		return true
	}
	return false
}

// Signed reports whether the basic type is a signed integer.
func (b BasicType) Signed() bool {
	switch b {
	case BasicInt8, BasicInt16, BasicInt32, BasicInt64:
		return true
	}
	return false
}

// Bits returns the bit width of a numeric basic type, or 0.
func (b BasicType) Bits() int {
	switch b {
	case BasicInt8, BasicUint8, BasicChar:
		return 8
	case BasicInt16, BasicUint16:
		return 16
	case BasicInt32, BasicUint32, BasicFloat32:
		return 32
	case BasicInt64, BasicUint64, BasicFloat64:
		return 64
	}
	return 0
}

// MaxValue returns the maximum representable value for integer basic types.
// For non-integer types it returns 0, false.
func (b BasicType) MaxValue() (int64, bool) {
	switch b {
	case BasicInt8:
		return 1<<7 - 1, true
	case BasicInt16:
		return 1<<15 - 1, true
	case BasicInt32:
		return 1<<31 - 1, true
	case BasicInt64:
		return 1<<63 - 1, true
	case BasicUint8, BasicChar:
		return 1<<8 - 1, true
	case BasicUint16:
		return 1<<16 - 1, true
	case BasicUint32:
		return 1<<32 - 1, true
	case BasicUint64:
		return 1<<63 - 1, true // clamped to int64 for generation purposes
	}
	return 0, false
}

// SemanticType is a high-level parameter meaning tied to known APIs
// (paper §2.2.2). The set mirrors the standard-library types SPEX supports
// plus the proprietary types imported for Storage-A.
type SemanticType string

const (
	SemFile      SemanticType = "FILE"      // file path expected to exist
	SemDirectory SemanticType = "DIR"       // directory path
	SemPath      SemanticType = "PATH"      // path, existence not required
	SemPort      SemanticType = "PORT"      // TCP/UDP port number
	SemIPAddr    SemanticType = "IPADDR"    // IP address
	SemHost      SemanticType = "HOST"      // host name or address
	SemURL       SemanticType = "URL"       // URL
	SemUser      SemanticType = "USER"      // user name
	SemGroup     SemanticType = "GROUP"     // group name
	SemPerm      SemanticType = "PERM"      // permission mask (octal)
	SemTimeout   SemanticType = "TIMEOUT"   // time duration
	SemSize      SemanticType = "SIZE"      // byte size
	SemCount     SemanticType = "COUNT"     // cardinality (threads, conns, …)
	SemPassword  SemanticType = "PASSWORD"  // secret
	SemCommand   SemanticType = "COMMAND"   // executable command line
	SemInitiator SemanticType = "INITIATOR" // iSCSI initiator name (Storage-A)
)

// Unit is a measurement unit attached to SIZE and TIMEOUT parameters
// (Table 7).
type Unit string

const (
	UnitNone Unit = ""
	// Size units.
	UnitByte Unit = "B"
	UnitKB   Unit = "KB"
	UnitMB   Unit = "MB"
	UnitGB   Unit = "GB"
	// Time units.
	UnitMicrosecond Unit = "us"
	UnitMillisecond Unit = "ms"
	UnitSecond      Unit = "s"
	UnitMinute      Unit = "m"
	UnitHour        Unit = "h"
)

// IsSize reports whether u is a byte-size unit.
func (u Unit) IsSize() bool {
	switch u {
	case UnitByte, UnitKB, UnitMB, UnitGB:
		return true
	}
	return false
}

// IsTime reports whether u is a time unit.
func (u Unit) IsTime() bool {
	switch u {
	case UnitMicrosecond, UnitMillisecond, UnitSecond, UnitMinute, UnitHour:
		return true
	}
	return false
}

// Op is a comparison operator in control dependencies and value
// relationships: one of < > = != >= <=.
type Op string

const (
	OpLT Op = "<"
	OpGT Op = ">"
	OpEQ Op = "="
	OpNE Op = "!="
	OpGE Op = ">="
	OpLE Op = "<="
)

// Negate returns the complement operator (used by the injector to violate a
// dependency condition).
func (o Op) Negate() Op {
	switch o {
	case OpLT:
		return OpGE
	case OpGT:
		return OpLE
	case OpEQ:
		return OpNE
	case OpNE:
		return OpEQ
	case OpGE:
		return OpLT
	case OpLE:
		return OpGT
	}
	return o
}

// Holds reports whether "a o b" is true for int64 operands.
func (o Op) Holds(a, b int64) bool {
	switch o {
	case OpLT:
		return a < b
	case OpGT:
		return a > b
	case OpEQ:
		return a == b
	case OpNE:
		return a != b
	case OpGE:
		return a >= b
	case OpLE:
		return a <= b
	}
	return false
}

// Flip returns the operator with its operands swapped: a o b == b Flip(o) a.
func (o Op) Flip() Op {
	switch o {
	case OpLT:
		return OpGT
	case OpGT:
		return OpLT
	case OpGE:
		return OpLE
	case OpLE:
		return OpGE
	}
	return o
}

// Interval is a half-open-ended numeric interval. Unbounded ends are
// represented by HasMin/HasMax = false.
type Interval struct {
	Min, Max       int64
	HasMin, HasMax bool
	// Valid reports whether values in the interval are accepted by the
	// program. Validity is decided from branch-block behaviour (§2.2.3):
	// exit, abort, error return, or parameter reset mark a range invalid.
	Valid bool
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v int64) bool {
	if iv.HasMin && v < iv.Min {
		return false
	}
	if iv.HasMax && v > iv.Max {
		return false
	}
	return true
}

func (iv Interval) String() string {
	lo, hi := "-inf", "+inf"
	if iv.HasMin {
		lo = fmt.Sprintf("%d", iv.Min)
	}
	if iv.HasMax {
		hi = fmt.Sprintf("%d", iv.Max)
	}
	v := "invalid"
	if iv.Valid {
		v = "valid"
	}
	return fmt.Sprintf("[%s,%s](%s)", lo, hi, v)
}

// EnumValue is one acceptable (or explicitly rejected) value of an
// enumerative range.
type EnumValue struct {
	Value string
	Valid bool
	// Overruled marks values that the program silently rewrites to a
	// default (silent-overruling detection, §3.2).
	Overruled bool
}

// SourceLoc identifies the code location a constraint was inferred from.
// One location may give rise to several constraints (Table 5b counts unique
// locations).
type SourceLoc struct {
	File string
	Line int
	Func string
}

func (l SourceLoc) String() string {
	if l.File == "" {
		return "<unknown>"
	}
	return fmt.Sprintf("%s:%d(%s)", l.File, l.Line, l.Func)
}

// Constraint is one inferred configuration constraint.
type Constraint struct {
	Kind  Kind
	Param string // parameter name (e.g. "listener-threads")

	// Basic-type constraints.
	Basic BasicType

	// Semantic-type constraints.
	Semantic SemanticType
	Unit     Unit
	// CaseSensitive applies to string/enum parameters: whether value
	// comparison in the program is case sensitive.
	CaseSensitive bool
	// CaseKnown reports whether case sensitivity was observed at all.
	CaseKnown bool

	// Range constraints: numeric intervals or an enum list.
	Intervals []Interval
	Enum      []EnumValue

	// Control dependency: (Peer, Value, Cond) -> Param, meaning Param takes
	// effect only when "Peer Cond Value" holds. Confidence is the
	// MAY-belief confidence (§2.2.4); dependencies below the threshold are
	// filtered before reporting.
	Peer       string
	Cond       Op
	Value      string
	Confidence float64

	// Value relationship: Param Rel Peer (e.g. ft_max_word_len > ft_min_word_len).
	Rel Op

	// Documented reports whether the target's manual documents this
	// constraint (undocumented-constraint detection, Table 8).
	Documented bool

	Loc SourceLoc
}

// ID returns a stable identity string used for deduplication.
func (c *Constraint) ID() string {
	switch c.Kind {
	case KindBasicType:
		return fmt.Sprintf("basic|%s|%s", c.Param, c.Basic)
	case KindSemanticType:
		return fmt.Sprintf("sem|%s|%s", c.Param, c.Semantic)
	case KindRange:
		parts := make([]string, 0, len(c.Intervals)+len(c.Enum))
		for _, iv := range c.Intervals {
			parts = append(parts, iv.String())
		}
		for _, e := range c.Enum {
			parts = append(parts, e.Value)
		}
		sort.Strings(parts)
		return fmt.Sprintf("range|%s|%s", c.Param, strings.Join(parts, ","))
	case KindControlDep:
		return fmt.Sprintf("dep|%s|%s|%s|%s", c.Param, c.Peer, c.Cond, c.Value)
	case KindValueRel:
		return fmt.Sprintf("rel|%s|%s|%s", c.Param, c.Rel, c.Peer)
	}
	return fmt.Sprintf("?|%s", c.Param)
}

// String renders the constraint in the notation of the paper.
func (c *Constraint) String() string {
	switch c.Kind {
	case KindBasicType:
		return fmt.Sprintf("%q: basic type %s", c.Param, c.Basic)
	case KindSemanticType:
		s := fmt.Sprintf("%q: semantic type %s", c.Param, c.Semantic)
		if c.Unit != UnitNone {
			s += fmt.Sprintf(" (unit %s)", c.Unit)
		}
		return s
	case KindRange:
		if len(c.Enum) > 0 {
			vals := make([]string, 0, len(c.Enum))
			for _, e := range c.Enum {
				if e.Valid {
					vals = append(vals, e.Value)
				}
			}
			return fmt.Sprintf("%q: one of {%s}", c.Param, strings.Join(vals, ", "))
		}
		ivs := make([]string, len(c.Intervals))
		for i, iv := range c.Intervals {
			ivs[i] = iv.String()
		}
		return fmt.Sprintf("%q: range %s", c.Param, strings.Join(ivs, " "))
	case KindControlDep:
		return fmt.Sprintf("(%q, %s, %s) -> %q", c.Peer, c.Value, c.Cond, c.Param)
	case KindValueRel:
		return fmt.Sprintf("%q %s %q", c.Param, c.Rel, c.Peer)
	}
	return fmt.Sprintf("unknown constraint for %q", c.Param)
}

// ValidIntervals returns the valid sub-intervals of a range constraint.
func (c *Constraint) ValidIntervals() []Interval {
	var out []Interval
	for _, iv := range c.Intervals {
		if iv.Valid {
			out = append(out, iv)
		}
	}
	return out
}

// Set is a deduplicated collection of constraints for one analyzed system.
type Set struct {
	System      string
	Constraints []*Constraint
	byID        map[string]*Constraint
}

// NewSet returns an empty constraint set for the named system.
func NewSet(system string) *Set {
	return &Set{System: system, byID: make(map[string]*Constraint)}
}

// Add inserts c unless an identical constraint is already present. It
// returns the canonical constraint (the existing one on duplicates).
func (s *Set) Add(c *Constraint) *Constraint {
	if s.byID == nil {
		s.byID = make(map[string]*Constraint)
	}
	id := c.ID()
	if old, ok := s.byID[id]; ok {
		return old
	}
	s.byID[id] = c
	s.Constraints = append(s.Constraints, c)
	return c
}

// ByParam returns all constraints for the given parameter.
func (s *Set) ByParam(param string) []*Constraint {
	var out []*Constraint
	for _, c := range s.Constraints {
		if c.Param == param {
			out = append(out, c)
		}
	}
	return out
}

// ByKind returns all constraints of the given kind.
func (s *Set) ByKind(k Kind) []*Constraint {
	var out []*Constraint
	for _, c := range s.Constraints {
		if c.Kind == k {
			out = append(out, c)
		}
	}
	return out
}

// CountByKind tallies constraints per kind (Table 11 rows).
func (s *Set) CountByKind() map[Kind]int {
	m := make(map[Kind]int)
	for _, c := range s.Constraints {
		m[c.Kind]++
	}
	return m
}

// Params returns the sorted set of parameter names that have at least one
// constraint.
func (s *Set) Params() []string {
	seen := make(map[string]bool)
	for _, c := range s.Constraints {
		seen[c.Param] = true
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of constraints in the set.
func (s *Set) Len() int { return len(s.Constraints) }

// setJSON is the stable serialized form of a Set: the constraints are
// sorted by identity, so two sets holding the same constraints marshal
// byte-for-byte equal regardless of insertion order. Persistent campaign
// snapshots (internal/campaignstore) store this form and Diff a fresh
// inference run against it.
type setJSON struct {
	System      string        `json:"system"`
	Constraints []*Constraint `json:"constraints"`
}

// MarshalJSON renders the set in its stable serialized form. Each ID is
// computed once, not once per comparison: a snapshot save marshals the
// set every time.
func (s *Set) MarshalJSON() ([]byte, error) {
	type byID struct {
		id string
		c  *Constraint
	}
	sorted := make([]byID, len(s.Constraints))
	for i, c := range s.Constraints {
		sorted[i] = byID{c.ID(), c}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	cs := make([]*Constraint, len(sorted))
	for i, e := range sorted {
		cs[i] = e.c
	}
	return json.Marshal(setJSON{System: s.System, Constraints: cs})
}

// UnmarshalJSON rebuilds the set, including its deduplication index.
func (s *Set) UnmarshalJSON(data []byte) error {
	var sj setJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return err
	}
	*s = Set{System: sj.System, byID: make(map[string]*Constraint)}
	for _, c := range sj.Constraints {
		s.Add(c)
	}
	return nil
}

// Fingerprint returns a short stable hash of the set's identity: the
// sorted constraint IDs. Two inference runs that produce the same
// constraints (in any order) share a fingerprint, and any identity
// change — the same signal Diff keys on — changes it.
func (s *Set) Fingerprint() string {
	ids := make([]string, 0, len(s.Constraints))
	for _, c := range s.Constraints {
		ids = append(ids, c.ID())
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
