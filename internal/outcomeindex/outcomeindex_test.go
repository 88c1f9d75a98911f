package outcomeindex

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/inject"
)

// fixture builds a system's outcome map with a known mix of reactions,
// harness errors, and source locations.
func fixture(system string, n int) map[string]inject.Outcome {
	reactions := []inject.Reaction{
		inject.ReactionCrash, inject.ReactionFuncFailure,
		inject.ReactionTolerated, inject.ReactionEarlyTerm,
	}
	out := make(map[string]inject.Outcome, n)
	for i := 0; i < n; i++ {
		c := &constraint.Constraint{
			Kind:  constraint.KindBasicType,
			Param: fmt.Sprintf("param%d", i%4),
			Basic: constraint.BasicString,
			Loc:   constraint.SourceLoc{File: fmt.Sprintf("%s.c", system), Line: 100 + i%3, Func: "parse"},
		}
		o := inject.Outcome{
			Misconf: confgen.Misconf{
				ID: fmt.Sprintf("m%03d", i), Param: c.Param, Rule: "null",
				Values: map[string]string{c.Param: "bad"}, Violates: c,
			},
			Reaction: reactions[i%len(reactions)],
			Loc:      c.Loc,
			SimCost:  i,
		}
		if i%7 == 6 {
			o.Err = "boot failed"
		}
		out[inject.CacheKey(o.Misconf)] = o
	}
	return out
}

func build(system string, n int) *System {
	return Build(Meta{System: system, Fingerprint: "fp-" + system, Options: "opts", SetFingerprint: "set"}, fixture(system, n))
}

// TestAggregatesMatchReport: the precomputed tallies must equal what
// inject.Report computes from the same outcomes — the aggregates ARE
// the table numbers.
func TestAggregatesMatchReport(t *testing.T) {
	outcomes := fixture("alpha", 29)
	sys := Build(Meta{System: "alpha"}, outcomes)

	rep := &inject.Report{System: "alpha"}
	for _, o := range outcomes {
		rep.Outcomes = append(rep.Outcomes, o)
	}
	wantByReaction := map[string]int{}
	for r, c := range rep.CountByReaction() {
		wantByReaction[r.String()] = c
	}
	if !reflect.DeepEqual(sys.Agg.ByReaction, wantByReaction) {
		t.Fatalf("ByReaction = %v, want %v", sys.Agg.ByReaction, wantByReaction)
	}
	if sys.Agg.Vulnerabilities != len(rep.Vulnerabilities()) {
		t.Fatalf("Vulnerabilities = %d, want %d", sys.Agg.Vulnerabilities, len(rep.Vulnerabilities()))
	}
	if sys.Agg.UniqueLocations != rep.UniqueLocations() {
		t.Fatalf("UniqueLocations = %d, want %d", sys.Agg.UniqueLocations, rep.UniqueLocations())
	}
	if sys.Agg.Outcomes != len(outcomes) {
		t.Fatalf("Outcomes = %d, want %d", sys.Agg.Outcomes, len(outcomes))
	}
	if sys.Agg.Errors != len(rep.Errors()) {
		t.Fatalf("Errors = %d, want %d", sys.Agg.Errors, len(rep.Errors()))
	}
}

func TestPostingListsAndDocOrder(t *testing.T) {
	sys := build("alpha", 20)
	for i := 1; i < len(sys.Docs); i++ {
		if sys.Docs[i-1].Key >= sys.Docs[i].Key {
			t.Fatalf("docs out of key order at %d: %q >= %q", i, sys.Docs[i-1].Key, sys.Docs[i].Key)
		}
	}
	// Every posting list position must point at a doc matching its key,
	// and the union of ByParam must cover every doc.
	covered := 0
	for param, list := range sys.ByParam {
		covered += len(list)
		for _, i := range list {
			if sys.Docs[i].Param != param {
				t.Fatalf("ByParam[%q] points at doc with param %q", param, sys.Docs[i].Param)
			}
		}
	}
	if covered != len(sys.Docs) {
		t.Fatalf("ByParam covers %d docs, want %d", covered, len(sys.Docs))
	}
	for name, list := range sys.ByReaction {
		for _, i := range list {
			d := &sys.Docs[i]
			if d.Err != "" || d.ReactionName() != name {
				t.Fatalf("ByReaction[%q] points at err=%q reaction=%q", name, d.Err, d.ReactionName())
			}
		}
	}
	for _, i := range sys.Vulnerable {
		if !sys.Docs[i].Vulnerability() {
			t.Fatalf("Vulnerable lists non-vulnerability doc %d", i)
		}
	}
	for _, d := range sys.Docs {
		if !sys.Has(d.Key) {
			t.Fatalf("Has(%q) = false for an indexed key", d.Key)
		}
	}
	if sys.Has("no-such-key") {
		t.Fatal("Has reports a key the index does not hold")
	}
}

func TestQueryRun(t *testing.T) {
	// Three systems share param0-param3; sizes differ so group counts
	// differ per system.
	systems := []*System{build("alpha", 24), build("beta", 16), build("gamma", 8)}

	// Default query: vulnerability groups across all systems, sorted by
	// reach descending.
	groups := Run(systems, Query{})
	if len(groups) == 0 {
		t.Fatal("default query found nothing")
	}
	for i := 1; i < len(groups); i++ {
		if len(groups[i-1].Systems) < len(groups[i].Systems) {
			t.Fatalf("groups not sorted by system reach: %v before %v", groups[i-1], groups[i])
		}
	}
	for _, g := range groups {
		if g.Vulnerabilities == 0 {
			t.Fatalf("default (vulnerability) query returned a group without vulnerabilities: %+v", g)
		}
	}

	// Param filter narrows to one family.
	p0 := Run(systems, Query{Param: "param0"})
	for _, g := range p0 {
		if g.Param != "param0" {
			t.Fatalf("param filter leaked %q", g.Param)
		}
	}
	if len(p0) == 0 {
		t.Fatal("param filter found nothing")
	}

	// MinSystems drops groups below the reach bar.
	all := Run(systems, Query{MinSystems: 3})
	for _, g := range all {
		if len(g.Systems) < 3 {
			t.Fatalf("min-systems=3 kept a %d-system group: %+v", len(g.Systems), g)
		}
	}

	// All=true includes tolerated/errored outcomes in the counts.
	withAll := Run(systems, Query{All: true})
	defOutcomes, allOutcomes := 0, 0
	for _, g := range groups {
		defOutcomes += g.Outcomes
	}
	for _, g := range withAll {
		allOutcomes += g.Outcomes
	}
	if allOutcomes <= defOutcomes {
		t.Fatalf("All=true matched %d outcomes, default %d — expected strictly more", allOutcomes, defOutcomes)
	}

	// Reaction filter only returns err-free docs with that reaction.
	crash := Run(systems, Query{Reaction: inject.ReactionCrash.String(), All: true})
	for _, g := range crash {
		if g.Reactions[inject.ReactionCrash.String()] != g.Outcomes {
			t.Fatalf("reaction filter leaked other reactions: %+v", g)
		}
	}
}

func TestSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "alpha.campaign.idx")
	sys := build("alpha", 10)
	f := &File{Version: Version, Snap: "alpha.campaign.snap", SnapSize: 1234, SnapMTime: 99, Sys: sys}
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Snap != f.Snap || got.SnapSize != f.SnapSize || got.SnapMTime != f.SnapMTime {
		t.Fatalf("sidecar identity lost: %+v", got)
	}
	if got.Sys.System != "alpha" || len(got.Sys.Docs) != len(sys.Docs) ||
		!reflect.DeepEqual(got.Sys.Agg, sys.Agg) {
		t.Fatal("sidecar index content lost")
	}

	// A version from the future is stale, not trusted.
	f.Version = Version + 1
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("version-mismatched sidecar accepted")
	}
}

// FuzzReadIndexFile: a sidecar is untrusted disk input. Decoding must
// return an error or an index whose queries never panic and whose
// aggregates are exactly what its docs add up to.
func FuzzReadIndexFile(f *testing.F) {
	valid, err := json.Marshal(&File{Version: Version, Snap: "alpha.campaign.snap", Sys: build("alpha", 12)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"version":2,"sys":{"system":"ldapd","docs":[{"key":"a","reaction":0}],"vulnerable":[48],"agg":{"vulnerabilities":12345}}}`))
	f.Add([]byte(`{"version":2,"sys":{"docs":[{"key":"b"},{"key":"a"}]}}`))
	f.Add([]byte(`{"version":2,"sys":{"docs":[{"key":"a","reaction":-7,"err":""},{"key":"b","reaction":99,"line":-1}]}}`))
	f.Add([]byte(`{"version":2,"sys":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := decodeFile(data)
		if err != nil {
			return
		}
		sys := file.Sys
		queries := []Query{{}, {All: true}, {MinSystems: 2}}
		for i := range sys.Docs {
			if i == 8 {
				break
			}
			d := &sys.Docs[i]
			queries = append(queries,
				Query{Param: d.Param}, Query{Kind: d.Kind, All: true},
				Query{Reaction: d.ReactionName(), All: true},
				Query{Param: d.Param, Kind: d.Kind, Reaction: d.ReactionName()})
		}
		for _, q := range queries {
			Run([]*System{sys, sys}, q)
		}
		if got, want := sys.Agg, docAggregates(sys.Docs); !reflect.DeepEqual(got, want) {
			t.Fatalf("aggregates %+v do not match the docs' %+v", got, want)
		}
	})
}

// docAggregates tallies docs directly — the reference the fuzz target
// holds a loaded index's aggregates to.
func docAggregates(docs []Doc) Aggregates {
	agg := Aggregates{Outcomes: len(docs), ByReaction: map[string]int{}}
	locs := map[string]bool{}
	for i := range docs {
		d := &docs[i]
		if d.Err != "" {
			agg.Errors++
			continue
		}
		agg.ByReaction[d.ReactionName()]++
		if d.Vulnerability() {
			agg.Vulnerabilities++
			locs[fmt.Sprintf("%s:%d", d.File, d.Line)] = true
		}
	}
	agg.UniqueLocations = len(locs)
	return agg
}
