package inject

import (
	"testing"

	"spex/internal/confgen"
	"spex/internal/constraint"
)

func mkSet(cs ...*constraint.Constraint) *constraint.Set {
	s := constraint.NewSet("t")
	for _, c := range cs {
		s.Add(c)
	}
	return s
}

func basic(p string, t constraint.BasicType) *constraint.Constraint {
	return &constraint.Constraint{Kind: constraint.KindBasicType, Param: p, Basic: t}
}

func rng(p string, min int64) *constraint.Constraint {
	return &constraint.Constraint{Kind: constraint.KindRange, Param: p,
		Intervals: []constraint.Interval{{HasMin: true, Min: min, Valid: true}}}
}

// selectRetests filters ms down to the misconfigurations the delta's
// retest rule (Delta.Retest) selects.
func selectRetests(ms []confgen.Misconf, d Delta) []confgen.Misconf {
	retest := d.Retest()
	var out []confgen.Misconf
	for _, m := range ms {
		if retest(m) {
			out = append(out, m)
		}
	}
	return out
}

func TestDiffPartitions(t *testing.T) {
	old := mkSet(
		basic("a", constraint.BasicInt64),
		rng("a", 1),
		basic("b", constraint.BasicBool),
	)
	new := mkSet(
		basic("a", constraint.BasicInt64), // unchanged
		rng("a", 4),                       // boundary moved: removed+added
		basic("c", constraint.BasicString),
	)
	d := Diff(old, new)
	if len(d.Added) != 2 { // new range + c's basic type
		t.Errorf("added = %d, want 2", len(d.Added))
	}
	if len(d.Removed) != 2 { // old range + b's basic type
		t.Errorf("removed = %d, want 2", len(d.Removed))
	}
}

func TestAffectedParamsIncludePeers(t *testing.T) {
	old := mkSet()
	new := mkSet(&constraint.Constraint{Kind: constraint.KindControlDep,
		Param: "q", Peer: "p", Cond: constraint.OpEQ, Value: "true"})
	d := Diff(old, new)
	ps := d.AffectedParams()
	if len(ps) != 2 || ps[0] != "p" || ps[1] != "q" {
		t.Errorf("affected = %v, want [p q]", ps)
	}
}

func TestSelectRetests(t *testing.T) {
	cOld := rng("a", 1)
	cNew := rng("a", 4)
	cStable := basic("x", constraint.BasicInt64)
	old := mkSet(cOld, cStable)
	new := mkSet(cNew, cStable)
	d := Diff(old, new)

	ms := []confgen.Misconf{
		{ID: "m1", Param: "a", Values: map[string]string{"a": "0"}, Violates: cNew},
		{ID: "m2", Param: "x", Values: map[string]string{"x": "fast"}, Violates: cStable},
		{ID: "m3", Param: "x", Values: map[string]string{"x": "1", "a": "3"}, Violates: cStable},
	}
	re := selectRetests(ms, d)
	ids := map[string]bool{}
	for _, m := range re {
		ids[m.ID] = true
	}
	if !ids["m1"] {
		t.Error("misconfiguration violating the added constraint must be retested")
	}
	if ids["m2"] {
		t.Error("misconfiguration on an unaffected parameter must not be retested")
	}
	if !ids["m3"] {
		t.Error("misconfiguration touching an affected parameter must be retested")
	}
}

func TestDiffIdenticalSetsNeedNoRetest(t *testing.T) {
	s1 := mkSet(basic("a", constraint.BasicInt64), rng("a", 1))
	s2 := mkSet(basic("a", constraint.BasicInt64), rng("a", 1))
	d := Diff(s1, s2)
	if len(d.Added)+len(d.Removed) != 0 {
		t.Errorf("identical sets produced delta: +%d -%d", len(d.Added), len(d.Removed))
	}
	ms := []confgen.Misconf{{ID: "m", Param: "a", Values: map[string]string{"a": "0"}}}
	if re := selectRetests(ms, d); len(re) != 0 {
		t.Errorf("no-op revision selected %d retests", len(re))
	}
}
