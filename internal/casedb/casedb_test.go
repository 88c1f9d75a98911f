package casedb

import (
	"testing"

	"spex/internal/constraint"
)

func inferredSet() *constraint.Set {
	s := constraint.NewSet("t")
	s.Add(&constraint.Constraint{Kind: constraint.KindBasicType, Param: "port", Basic: constraint.BasicInt64})
	s.Add(&constraint.Constraint{Kind: constraint.KindSemanticType, Param: "port", Semantic: constraint.SemPort})
	s.Add(&constraint.Constraint{Kind: constraint.KindRange, Param: "limit",
		Intervals: []constraint.Interval{{HasMin: true, Min: 1, Valid: true}}})
	s.Add(&constraint.Constraint{Kind: constraint.KindControlDep, Param: "dep", Peer: "flag",
		Cond: constraint.OpEQ, Value: "true"})
	s.Add(&constraint.Constraint{Kind: constraint.KindValueRel, Param: "max", Rel: constraint.OpGT, Peer: "min"})
	return s
}

func TestClassifyCategories(t *testing.T) {
	set := inferredSet()
	cases := []struct {
		c    Case
		want Category
	}{
		{Case{CrossSoftware: true}, CategoryCrossSW},
		{Case{Violation: true, Patternless: true}, CategorySingleSW},
		{Case{Violation: false}, CategoryConform},
		{Case{Violation: true, Pinpointed: true, Param: "port",
			ViolatesKind: constraint.KindBasicType}, CategoryGoodReaction},
		{Case{Violation: true, Param: "port",
			ViolatesKind: constraint.KindSemanticType}, CategoryAvoidable},
		// Violation of a constraint SPEX did not infer: not avoidable.
		{Case{Violation: true, Param: "unknown_param",
			ViolatesKind: constraint.KindRange}, CategorySingleSW},
	}
	for i, tc := range cases {
		if got := Classify(tc.c, set); got != tc.want {
			t.Errorf("case %d: Classify = %s, want %s", i, got, tc.want)
		}
	}
}

func TestGenerateMatchesSpecTotals(t *testing.T) {
	set := inferredSet()
	for _, spec := range PaperSpecs() {
		cases := Generate(spec, set)
		if len(cases) != spec.Total() {
			t.Errorf("%s: generated %d cases, spec total %d", spec.System, len(cases), spec.Total())
		}
	}
}

func TestPaperSpecPopulations(t *testing.T) {
	want := map[string]int{"Storage-A": 246, "httpd": 50, "mydb": 47, "ldapd": 49}
	for _, spec := range PaperSpecs() {
		if got := spec.Total(); got != want[spec.System] {
			t.Errorf("%s population = %d, want %d (paper Table 9)", spec.System, got, want[spec.System])
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	set := inferredSet()
	spec := PaperSpecs()[0]
	a := Generate(spec, set)
	b := Generate(spec, set)
	if len(a) != len(b) {
		t.Fatal("nondeterministic size")
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Param != b[i].Param {
			t.Fatalf("case %d differs between runs", i)
		}
	}
}

func TestRunStudyBands(t *testing.T) {
	set := inferredSet()
	for _, spec := range PaperSpecs() {
		cases := Generate(spec, set)
		st := Run(spec.System, cases, set)
		pct := st.Pct(CategoryAvoidable)
		// The paper's band is 24%-38%; the generator binds avoidable
		// cases to really-inferred constraints, so the measured band
		// should stay close.
		if pct < 20 || pct > 42 {
			t.Errorf("%s avoidable = %.1f%%, outside the paper band", spec.System, pct)
		}
		sum := 0
		for _, cat := range []Category{CategoryAvoidable, CategorySingleSW,
			CategoryCrossSW, CategoryConform, CategoryGoodReaction} {
			sum += st.Count(cat)
		}
		if sum != st.Total() {
			t.Errorf("%s categories sum to %d of %d", spec.System, sum, st.Total())
		}
	}
}

func TestGenerateWithMissingKindsFallsBack(t *testing.T) {
	// An inferred set with no dependencies: dep-avoidable cases fall
	// back to patternless, keeping classification honest.
	s := constraint.NewSet("t")
	s.Add(&constraint.Constraint{Kind: constraint.KindBasicType, Param: "p", Basic: constraint.BasicBool})
	spec := Spec{System: "x", AvoidableByKind: [5]int{1, 0, 0, 2, 0}}
	cases := Generate(spec, s)
	st := Run("x", cases, s)
	if st.Count(CategoryAvoidable) != 1 {
		t.Errorf("avoidable = %d, want 1 (the basic-type case)", st.Count(CategoryAvoidable))
	}
	if st.Count(CategorySingleSW) != 2 {
		t.Errorf("single-sw fallback = %d, want 2", st.Count(CategorySingleSW))
	}
}

// TestGenerateWithoutInferredSet: a nil set is safe for a spec with no
// good-reaction cases, and every avoidable case falls back to
// patternless.
func TestGenerateWithoutInferredSet(t *testing.T) {
	spec := Spec{System: "x", AvoidableByKind: [5]int{1, 0, 0, 2, 0}, SingleSW: 1, CrossSW: 1, Conform: 1}
	cases := Generate(spec, nil)
	if len(cases) != spec.Total() {
		t.Fatalf("generated %d cases, spec total %d", len(cases), spec.Total())
	}
	for _, c := range cases {
		if c.Violation && !c.Patternless {
			t.Errorf("case %s is bound to %q without an inferred set", c.ID, c.Param)
		}
	}
}

func TestCategoryNames(t *testing.T) {
	if CategoryAvoidable.String() != "avoidable" ||
		CategoryCrossSW.String() != "cross-sw-incapability" {
		t.Error("category names changed")
	}
}
