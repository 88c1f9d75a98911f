// Package casedb reconstructs the paper's historical-misconfiguration
// study (§4.2, Tables 9–10). The paper samples 246 customer cases from the
// Storage-A issue database and 177 cases from open-source forums, then asks
// which could have been avoided had SPEX hardened the system. The raw case
// texts are proprietary/forum data we do not have, so the database is
// synthetic: for each studied system we regenerate a case population whose
// category distribution matches the paper's published breakdown, but
// avoidability is *computed* against the constraints our SPEX actually
// infers — a case is avoidable only if the tool finds a constraint of the
// right kind for the misconfigured parameter.
package casedb

import (
	"fmt"
	"sort"

	"spex/internal/constraint"
)

// Category is the paper's Table 10 breakdown of why a case does or does
// not benefit from SPEX.
type Category int

const (
	// CategoryAvoidable: the case violates a constraint SPEX infers;
	// hardening would have pinpointed or prevented it.
	CategoryAvoidable Category = iota
	// CategorySingleSW: the constraint is program-specific with no
	// concrete pattern (SPEX's single-software inference incapability).
	CategorySingleSW
	// CategoryCrossSW: the error spans multiple software systems;
	// cross-software correlation is future work (§2.3).
	CategoryCrossSW
	// CategoryConform: the setting conforms to all constraints but does
	// not match the user's intention.
	CategoryConform
	// CategoryGoodReaction: the system already pinpointed the error;
	// the user reported it anyway.
	CategoryGoodReaction
)

var categoryNames = [...]string{
	"avoidable", "single-sw-incapability", "cross-sw-incapability",
	"conform-to-constraints", "good-reactions",
}

func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Case is one historical misconfiguration report.
type Case struct {
	ID     string
	System string
	// Param is the misconfigured parameter ("" for cross-software cases
	// whose root cause is outside the system).
	Param string
	// ViolatesKind is the constraint kind the error violates, when the
	// error is a constraint violation at all.
	ViolatesKind constraint.Kind
	Violation    bool
	// CrossSoftware marks errors spanning software stacks.
	CrossSoftware bool
	// Patternless marks constraints with no concrete program pattern
	// (complicated string manipulation, compositions of conditions).
	Patternless bool
	// Pinpointed marks cases where the system's logs already named the
	// parameter.
	Pinpointed bool
	// Summary is a one-line description for reports.
	Summary string
}

// Classify determines a case's category given the constraints inferred for
// its system. The inferred set decides avoidability: SPEX helps only where
// it actually finds the violated constraint.
func Classify(c Case, inferred *constraint.Set) Category {
	switch {
	case c.CrossSoftware:
		return CategoryCrossSW
	case c.Patternless:
		return CategorySingleSW
	case !c.Violation:
		return CategoryConform
	case c.Pinpointed:
		return CategoryGoodReaction
	}
	if inferred != nil {
		for _, k := range inferred.ByParam(c.Param) {
			if k.Kind == c.ViolatesKind {
				return CategoryAvoidable
			}
		}
		// Violation of a constraint SPEX missed.
		return CategorySingleSW
	}
	return CategoryAvoidable
}

// Study is the per-system case population and classification result.
type Study struct {
	System string
	Cases  []Case
	ByCat  map[Category][]Case
}

// Total returns the number of sampled cases.
func (s *Study) Total() int { return len(s.Cases) }

// Count returns the number of cases in a category.
func (s *Study) Count(c Category) int { return len(s.ByCat[c]) }

// Pct returns a category's share of the population in percent.
func (s *Study) Pct(c Category) float64 {
	if len(s.Cases) == 0 {
		return 0
	}
	return 100 * float64(s.Count(c)) / float64(len(s.Cases))
}

// Run classifies a case population against an inferred constraint set.
func Run(system string, cases []Case, inferred *constraint.Set) *Study {
	st := &Study{System: system, Cases: cases, ByCat: map[Category][]Case{}}
	for _, c := range cases {
		cat := Classify(c, inferred)
		st.ByCat[cat] = append(st.ByCat[cat], c)
	}
	return st
}

// Spec drives the deterministic generator: how many cases of each flavour
// to produce for a system. The shipped specs (PaperSpecs) encode the
// paper's Tables 9–10 distributions.
type Spec struct {
	System string
	// Avoidable cases reference parameters with inferred constraints of
	// each kind; the counts are per constraint kind in order
	// basic/semantic/range/dep/rel.
	AvoidableByKind [5]int
	SingleSW        int
	CrossSW         int
	Conform         int
	GoodReaction    int
}

// Total returns the population size the spec generates.
func (s Spec) Total() int {
	n := s.SingleSW + s.CrossSW + s.Conform + s.GoodReaction
	for _, k := range s.AvoidableByKind {
		n += k
	}
	return n
}

// PaperSpecs returns the four studied systems with the paper's published
// populations: Storage-A 246 cases (68 avoidable), Apache 50 (19), MySQL
// 47 (14), OpenLDAP 49 (12).
func PaperSpecs() []Spec {
	return []Spec{
		{System: "Storage-A", AvoidableByKind: [5]int{14, 18, 22, 10, 4},
			SingleSW: 19, CrossSW: 51, Conform: 76, GoodReaction: 32},
		{System: "httpd", AvoidableByKind: [5]int{4, 6, 5, 2, 2},
			SingleSW: 5, CrossSW: 12, Conform: 9, GoodReaction: 5},
		{System: "mydb", AvoidableByKind: [5]int{3, 4, 4, 2, 1},
			SingleSW: 1, CrossSW: 12, Conform: 18, GoodReaction: 2},
		{System: "ldapd", AvoidableByKind: [5]int{3, 3, 5, 0, 1},
			SingleSW: 9, CrossSW: 4, Conform: 12, GoodReaction: 12},
	}
}

// Generate produces a deterministic case population for a spec. Avoidable
// cases are bound to parameters that actually carry constraints of the
// needed kind in the inferred set; if the set lacks enough parameters of a
// kind, the remainder fall back to patternless cases (so classification
// stays honest).
func Generate(spec Spec, inferred *constraint.Set) []Case {
	var out []Case
	id := 0
	next := func() string {
		id++
		return fmt.Sprintf("%s-%04d", spec.System, id)
	}
	rng := newLCG(hashString(spec.System))

	// Avoidable: pick parameters carrying each constraint kind.
	for kind := 0; kind < 5; kind++ {
		want := spec.AvoidableByKind[kind]
		params := paramsWithKind(inferred, constraint.Kind(kind))
		for i := 0; i < want; i++ {
			if len(params) == 0 {
				out = append(out, Case{
					ID: next(), System: spec.System, Violation: true,
					Patternless: true,
					Param:       fmt.Sprintf("opaque.param.%d", i),
					Summary:     "violates a constraint with no concrete program pattern",
				})
				continue
			}
			p := params[int(rng.next())%len(params)]
			out = append(out, Case{
				ID: next(), System: spec.System, Param: p,
				ViolatesKind: constraint.Kind(kind), Violation: true,
				Summary: fmt.Sprintf("misconfigured %q violating its %s constraint", p, constraint.Kind(kind)),
			})
		}
	}
	for i := 0; i < spec.SingleSW; i++ {
		out = append(out, Case{
			ID: next(), System: spec.System, Violation: true, Patternless: true,
			Param:   fmt.Sprintf("acl.rule.%d", i),
			Summary: "complicated semi-structured rule SPEX cannot parse",
		})
	}
	for i := 0; i < spec.CrossSW; i++ {
		out = append(out, Case{
			ID: next(), System: spec.System, CrossSoftware: true,
			Summary: "correlation across the software stack (e.g. firewall blocks the configured port)",
		})
	}
	for i := 0; i < spec.Conform; i++ {
		out = append(out, Case{
			ID: next(), System: spec.System, Violation: false,
			Param:   fmt.Sprintf("valid.but.wrong.%d", i),
			Summary: "setting is valid by every constraint but does not match the user's intention",
		})
	}
	var params []string
	if spec.GoodReaction > 0 {
		params = inferred.Params()
	}
	for i := 0; i < spec.GoodReaction; i++ {
		p := ""
		if len(params) > 0 {
			p = params[int(rng.next())%len(params)]
		}
		out = append(out, Case{
			ID: next(), System: spec.System, Violation: true, Pinpointed: true,
			Param:        p,
			ViolatesKind: constraint.KindBasicType,
			Summary:      "system already pinpointed the parameter; user reported anyway",
		})
	}
	return out
}

func paramsWithKind(set *constraint.Set, kind constraint.Kind) []string {
	if set == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, c := range set.ByKind(kind) {
		if !seen[c.Param] {
			seen[c.Param] = true
			out = append(out, c.Param)
		}
	}
	sort.Strings(out)
	return out
}

// lcg is a small deterministic pseudo-random generator (no math/rand to
// keep case IDs stable across Go versions).
type lcg struct{ state uint64 }

func newLCG(seed uint64) *lcg {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &lcg{state: seed}
}

func (l *lcg) next() uint64 {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return l.state >> 33
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
