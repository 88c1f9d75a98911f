package constraint

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

var allOps = []Op{OpLT, OpGT, OpEQ, OpNE, OpGE, OpLE}

func TestOpNegateIsInvolution(t *testing.T) {
	for _, op := range allOps {
		if got := op.Negate().Negate(); got != op {
			t.Errorf("Negate(Negate(%s)) = %s", op, got)
		}
	}
}

func TestOpFlipIsInvolution(t *testing.T) {
	for _, op := range allOps {
		if got := op.Flip().Flip(); got != op {
			t.Errorf("Flip(Flip(%s)) = %s", op, got)
		}
	}
}

// Property: for all a, b: (a op b) == !(a Negate(op) b).
func TestOpNegateComplement(t *testing.T) {
	f := func(a, b int64) bool {
		for _, op := range allOps {
			if op.Holds(a, b) == op.Negate().Holds(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for all a, b: (a op b) == (b Flip(op) a).
func TestOpFlipSwapsOperands(t *testing.T) {
	f := func(a, b int64) bool {
		for _, op := range allOps {
			if op.Holds(a, b) != op.Flip().Holds(b, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBasicTypeProperties(t *testing.T) {
	if !BasicInt32.Numeric() || !BasicInt32.Signed() || BasicInt32.Bits() != 32 {
		t.Error("int32 misclassified")
	}
	if BasicUint16.Signed() {
		t.Error("uint16 must be unsigned")
	}
	if BasicString.Numeric() || BasicBool.Numeric() {
		t.Error("string/bool are not numeric")
	}
	if max, ok := BasicInt8.MaxValue(); !ok || max != 127 {
		t.Errorf("int8 max = %d, want 127", max)
	}
	if max, ok := BasicUint16.MaxValue(); !ok || max != 65535 {
		t.Errorf("uint16 max = %d, want 65535", max)
	}
	if _, ok := BasicString.MaxValue(); ok {
		t.Error("string has no max value")
	}
}

func TestIntervalContains(t *testing.T) {
	cases := []struct {
		iv   Interval
		v    int64
		want bool
	}{
		{Interval{HasMin: true, Min: 4, HasMax: true, Max: 255}, 4, true},
		{Interval{HasMin: true, Min: 4, HasMax: true, Max: 255}, 255, true},
		{Interval{HasMin: true, Min: 4, HasMax: true, Max: 255}, 3, false},
		{Interval{HasMin: true, Min: 4, HasMax: true, Max: 255}, 256, false},
		{Interval{HasMax: true, Max: 10}, -1 << 62, true},
		{Interval{HasMin: true, Min: 10}, 1 << 62, true},
		{Interval{}, 0, true}, // unbounded contains everything
	}
	for _, c := range cases {
		if got := c.iv.Contains(c.v); got != c.want {
			t.Errorf("%s.Contains(%d) = %v, want %v", c.iv, c.v, got, c.want)
		}
	}
}

// Property: an interval always contains its own finite endpoints.
func TestIntervalContainsEndpoints(t *testing.T) {
	f := func(min, max int64) bool {
		if min > max {
			min, max = max, min
		}
		iv := Interval{HasMin: true, Min: min, HasMax: true, Max: max}
		return iv.Contains(min) && iv.Contains(max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnitClasses(t *testing.T) {
	for _, u := range []Unit{UnitByte, UnitKB, UnitMB, UnitGB} {
		if !u.IsSize() || u.IsTime() {
			t.Errorf("%s must be size-only", u)
		}
	}
	for _, u := range []Unit{UnitMicrosecond, UnitMillisecond, UnitSecond, UnitMinute, UnitHour} {
		if !u.IsTime() || u.IsSize() {
			t.Errorf("%s must be time-only", u)
		}
	}
	if UnitNone.IsSize() || UnitNone.IsTime() {
		t.Error("UnitNone is neither")
	}
}

func TestSetDeduplicates(t *testing.T) {
	s := NewSet("sys")
	a := &Constraint{Kind: KindBasicType, Param: "p", Basic: BasicInt64}
	b := &Constraint{Kind: KindBasicType, Param: "p", Basic: BasicInt64}
	c := &Constraint{Kind: KindBasicType, Param: "p", Basic: BasicString}
	if got := s.Add(a); got != a {
		t.Error("first Add should return the constraint itself")
	}
	if got := s.Add(b); got != a {
		t.Error("duplicate Add should return the canonical constraint")
	}
	s.Add(c)
	if s.Len() != 2 {
		t.Errorf("set size = %d, want 2", s.Len())
	}
}

func TestSetQueries(t *testing.T) {
	s := NewSet("sys")
	s.Add(&Constraint{Kind: KindBasicType, Param: "a", Basic: BasicInt64})
	s.Add(&Constraint{Kind: KindRange, Param: "a",
		Intervals: []Interval{{HasMin: true, Min: 1, Valid: true}}})
	s.Add(&Constraint{Kind: KindBasicType, Param: "b", Basic: BasicBool})
	if got := len(s.ByParam("a")); got != 2 {
		t.Errorf("ByParam(a) = %d, want 2", got)
	}
	if got := len(s.ByKind(KindBasicType)); got != 2 {
		t.Errorf("ByKind(basic) = %d, want 2", got)
	}
	if got := s.CountByKind()[KindRange]; got != 1 {
		t.Errorf("CountByKind[range] = %d, want 1", got)
	}
	params := s.Params()
	if len(params) != 2 || params[0] != "a" || params[1] != "b" {
		t.Errorf("Params() = %v, want [a b]", params)
	}
}

func TestConstraintIDStability(t *testing.T) {
	c1 := &Constraint{Kind: KindControlDep, Param: "q", Peer: "p", Cond: OpEQ, Value: "true"}
	c2 := &Constraint{Kind: KindControlDep, Param: "q", Peer: "p", Cond: OpEQ, Value: "true", Confidence: 0.9}
	if c1.ID() != c2.ID() {
		t.Error("confidence must not affect identity")
	}
	c3 := &Constraint{Kind: KindControlDep, Param: "q", Peer: "p", Cond: OpNE, Value: "true"}
	if c1.ID() == c3.ID() {
		t.Error("different operators must have different identities")
	}
}

func TestValidInvalidIntervals(t *testing.T) {
	c := &Constraint{Kind: KindRange, Param: "p", Intervals: []Interval{
		{HasMax: true, Max: 3, Valid: false},
		{HasMin: true, Min: 4, HasMax: true, Max: 255, Valid: true},
		{HasMin: true, Min: 256, Valid: false},
	}}
	if got := len(c.ValidIntervals()); got != 1 {
		t.Errorf("valid intervals = %d, want 1", got)
	}
}

func TestConstraintString(t *testing.T) {
	cases := []struct {
		c    Constraint
		want string
	}{
		{Constraint{Kind: KindBasicType, Param: "p", Basic: BasicInt32},
			`"p": basic type int32`},
		{Constraint{Kind: KindSemanticType, Param: "p", Semantic: SemFile},
			`"p": semantic type FILE`},
		{Constraint{Kind: KindControlDep, Param: "q", Peer: "p", Cond: OpEQ, Value: "0"},
			`("p", 0, =) -> "q"`},
		{Constraint{Kind: KindValueRel, Param: "a", Rel: OpGT, Peer: "b"},
			`"a" > "b"`},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestSetJSONRoundTripIsStable(t *testing.T) {
	mk := func(order ...int) *Set {
		cs := []*Constraint{
			{Kind: KindBasicType, Param: "threads", Basic: BasicInt32,
				Loc: SourceLoc{File: "a.go", Line: 10, Func: "parse"}},
			{Kind: KindRange, Param: "threads",
				Intervals: []Interval{{HasMin: true, Min: 1, HasMax: true, Max: 64, Valid: true}}},
			{Kind: KindControlDep, Param: "cache-size", Peer: "cache", Cond: OpEQ, Value: "on",
				Confidence: 0.9},
		}
		s := NewSet("sys")
		for _, i := range order {
			s.Add(cs[i])
		}
		return s
	}
	a := mk(0, 1, 2)
	b := mk(2, 0, 1)

	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("insertion order leaked into the serialized form:\n%s\n%s", ja, jb)
	}

	var back Set
	if err := json.Unmarshal(ja, &back); err != nil {
		t.Fatal(err)
	}
	if back.System != "sys" || back.Len() != 3 {
		t.Fatalf("round trip lost data: system=%q len=%d", back.System, back.Len())
	}
	for _, c := range a.Constraints {
		found := false
		for _, d := range back.Constraints {
			if d.ID() == c.ID() {
				found = true
			}
		}
		if !found {
			t.Fatalf("constraint %s missing after round trip", c.ID())
		}
	}
	// The dedup index is rebuilt: re-adding an existing constraint
	// returns the canonical one instead of growing the set.
	dup := &Constraint{Kind: KindBasicType, Param: "threads", Basic: BasicInt32}
	if back.Add(dup) == dup || back.Len() != 3 {
		t.Fatal("round-tripped set lost its deduplication index")
	}
}

func TestSetFingerprint(t *testing.T) {
	a := NewSet("s")
	a.Add(&Constraint{Kind: KindBasicType, Param: "p", Basic: BasicBool})
	a.Add(&Constraint{Kind: KindRange, Param: "p",
		Intervals: []Interval{{HasMin: true, Min: 0, Valid: true}}})
	b := NewSet("s")
	b.Add(&Constraint{Kind: KindRange, Param: "p",
		Intervals: []Interval{{HasMin: true, Min: 0, Valid: true}}})
	b.Add(&Constraint{Kind: KindBasicType, Param: "p", Basic: BasicBool})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on insertion order")
	}
	b.Add(&Constraint{Kind: KindBasicType, Param: "q", Basic: BasicBool})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint missed an added constraint")
	}
}
