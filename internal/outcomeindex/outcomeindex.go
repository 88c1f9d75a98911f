// Package outcomeindex builds an inverted index over a campaign's
// recorded outcomes — the read-side companion of the binary snapshot
// format in internal/campaignstore. A snapshot answers "replay this
// exact campaign"; the index answers the daemon's query traffic ("this
// system's outcomes, page 3", "which misconfigurations break more than
// N systems?", "table 5's tallies") without re-parsing a snapshot per
// request.
//
// The shape is keyword → posting list: every outcome becomes one
// compact Doc (the projection the API and the tables actually consume —
// no log dumps, no env actions, no constraint payloads), posting lists
// map each parameter, constraint kind and reaction to the positions of
// its docs, and one list holds the vulnerabilities'. Per-system
// aggregates (outcome count, reaction tallies, vulnerability count) are
// precomputed when the index is built, so serving table 3/5 is a map
// lookup, not a scan.
//
// An index is derived data, never authoritative, and this package does
// not persist it: campaignstore builds one as a snapshot is written or
// decoded and holds it in memory while the snapshot file is unchanged.
package outcomeindex

import (
	"sort"
	"time"

	"spex/internal/constraint"
	"spex/internal/inject"
)

// Doc is one indexed outcome: the projection of inject.Outcome that the
// HTTP API and the evaluation tables consume. Docs are stored in
// ascending Key order, so posting lists (positions into Docs) enumerate
// outcomes deterministically.
type Doc struct {
	// Key is the outcome's replay identity (inject.CacheKey).
	Key string
	// ID, Param, Rule and Description identify the misconfiguration.
	ID          string
	Param       string
	Rule        string
	Description string
	// Kind names the violated constraint's kind ("" when unknown).
	Kind string
	// Reaction is the persisted inject.Reaction value.
	Reaction int
	// Err is the harness failure, if any; errored docs are excluded
	// from reaction tallies exactly like Report.CountByReaction.
	Err        string
	Pinpointed bool
	FailedTest string
	// File/Line/Func are the violated constraint's source location.
	File    string
	Line    int
	Func    string
	SimCost int
}

// Vulnerability reports whether the doc's reaction counts as a
// misconfiguration vulnerability (errored docs never do).
func (d *Doc) Vulnerability() bool {
	return d.Err == "" && inject.Reaction(d.Reaction).Vulnerability()
}

// ReactionName renders the doc's reaction.
func (d *Doc) ReactionName() string { return inject.Reaction(d.Reaction).String() }

// LocString renders the doc's source location like
// constraint.SourceLoc.String.
func (d *Doc) LocString() string {
	return constraint.SourceLoc{File: d.File, Line: d.Line, Func: d.Func}.String()
}

// Aggregates precomputes the per-system tallies the tables and the
// outcomes endpoint serve.
type Aggregates struct {
	// Outcomes counts every doc, errored ones included.
	Outcomes int
	// ByReaction tallies err-free docs per reaction name — the same
	// numbers as inject.Report.CountByReaction.
	ByReaction map[string]int
	// Vulnerabilities counts err-free docs whose reaction is a
	// vulnerability.
	Vulnerabilities int
}

// System is one system's index: docs, posting lists, and aggregates,
// plus the snapshot identity it was derived from.
type System struct {
	// System is the target system's name.
	System string
	// Fingerprint is the source snapshot's replay-equivalence hash
	// (campaignstore.Snapshot.Fingerprint) — the ETag of every read
	// endpoint serving this system.
	Fingerprint string
	// SavedAt, Options and SetFingerprint mirror the snapshot header.
	SavedAt        time.Time
	Options        string
	SetFingerprint string
	// Docs holds every outcome's projection in ascending Key order.
	Docs []Doc
	// Posting lists: positions into Docs, ascending, derived from Docs
	// by Builder.Finish like Agg.
	ByParam    map[string][]int
	ByKind     map[string][]int
	ByReaction map[string][]int
	// Vulnerable lists the vulnerability docs.
	Vulnerable []int
	// Agg holds the precomputed tallies.
	Agg Aggregates
}

// Meta identifies the snapshot an index is built from.
type Meta struct {
	System         string
	Fingerprint    string
	SavedAt        time.Time
	Options        string
	SetFingerprint string
}

// Builder accumulates docs one outcome at a time — the streaming hook
// campaignstore feeds as a snapshot is written (Save and merge) or read
// (LoadIndex), so an index is built in the pass that moves the records,
// not by a second pass over the store.
type Builder struct {
	meta Meta
	docs []Doc
}

// NewBuilder starts an index build for one system.
func NewBuilder(meta Meta) *Builder { return &Builder{meta: meta} }

// Add indexes one outcome. Callers add outcomes in strictly ascending
// key order, the snapshot record order, which both of campaignstore's
// producers enforce (the encoder and the decoder reject any other).
func (b *Builder) Add(key string, o inject.Outcome) {
	d := Doc{
		Key:         key,
		ID:          o.Misconf.ID,
		Param:       o.Misconf.Param,
		Rule:        o.Misconf.Rule,
		Description: o.Misconf.Description,
		Reaction:    int(o.Reaction),
		Err:         o.Err,
		Pinpointed:  o.Pinpointed,
		FailedTest:  o.FailedTest,
		File:        o.Loc.File,
		Line:        o.Loc.Line,
		Func:        o.Loc.Func,
		SimCost:     o.SimCost,
	}
	if o.Misconf.Violates != nil {
		d.Kind = o.Misconf.Violates.Kind.String()
	}
	b.docs = append(b.docs, d)
}

// SetFingerprint records the snapshot fingerprint once it is known —
// the streaming writer only has it after the last record.
func (b *Builder) SetFingerprint(fp string) { b.meta.Fingerprint = fp }

// Finish assembles the posting lists and aggregates.
func (b *Builder) Finish() *System {
	sys := &System{
		System:         b.meta.System,
		Fingerprint:    b.meta.Fingerprint,
		SavedAt:        b.meta.SavedAt,
		Options:        b.meta.Options,
		SetFingerprint: b.meta.SetFingerprint,
		Docs:           b.docs,
		ByParam:        map[string][]int{},
		ByKind:         map[string][]int{},
		ByReaction:     map[string][]int{},
		Agg:            Aggregates{ByReaction: map[string]int{}},
	}
	for i := range sys.Docs {
		d := &sys.Docs[i]
		sys.Agg.Outcomes++
		sys.ByParam[d.Param] = append(sys.ByParam[d.Param], i)
		if d.Kind != "" {
			sys.ByKind[d.Kind] = append(sys.ByKind[d.Kind], i)
		}
		if d.Err != "" {
			continue
		}
		name := d.ReactionName()
		sys.ByReaction[name] = append(sys.ByReaction[name], i)
		sys.Agg.ByReaction[name]++
		if d.Vulnerability() {
			sys.Vulnerable = append(sys.Vulnerable, i)
			sys.Agg.Vulnerabilities++
		}
	}
	return sys
}

// Has reports whether the index holds an outcome for key. It only reads
// the index, so concurrent callers may share one.
func (s *System) Has(key string) bool {
	i := sort.Search(len(s.Docs), func(i int) bool { return s.Docs[i].Key >= key })
	return i < len(s.Docs) && s.Docs[i].Key == key
}

// ---- cross-system query ----

// Query filters the cross-system query endpoint evaluates over a set of
// system indexes. Zero-value fields do not filter.
type Query struct {
	// Param restricts to misconfigurations of this parameter.
	Param string
	// Kind restricts to misconfigurations violating this constraint
	// kind (constraint.Kind.String names).
	Kind string
	// Reaction restricts to docs with this reaction name.
	Reaction string
	// MinSystems keeps only groups seen in at least this many systems
	// (<=1 keeps all).
	MinSystems int
	// All includes non-vulnerability outcomes; the default answers
	// "which misconfigurations break systems", i.e. vulnerabilities
	// only.
	All bool
}

// Group is one query result: a (parameter, rule) misconfiguration
// family aggregated across systems.
type Group struct {
	Param string `json:"param"`
	Rule  string `json:"rule,omitempty"`
	Kind  string `json:"kind,omitempty"`
	// Systems lists the systems the group matched in, sorted.
	Systems []string `json:"systems"`
	// Outcomes and Vulnerabilities count matched docs across systems.
	Outcomes        int `json:"outcomes"`
	Vulnerabilities int `json:"vulnerabilities"`
	// Reactions tallies matched err-free docs per reaction name.
	Reactions map[string]int `json:"reactions"`
}

// Run evaluates the query over the given system indexes, grouping
// matched docs by (param, rule) and sorting groups by system reach
// (descending), then param, then rule. Posting lists narrow the scan:
// the starting list is the most selective of the param/kind/reaction
// filters, or the vulnerability list when no filter applies.
func Run(systems []*System, q Query) []Group {
	type gkey struct{ param, rule string }
	groups := map[gkey]*Group{}
	seen := map[gkey]map[string]bool{}
	for _, sys := range systems {
		for _, i := range sys.candidates(q) {
			d := &sys.Docs[i]
			if !q.matches(d) {
				continue
			}
			k := gkey{d.Param, d.Rule}
			g := groups[k]
			if g == nil {
				g = &Group{Param: d.Param, Rule: d.Rule, Kind: d.Kind, Reactions: map[string]int{}}
				groups[k] = g
				seen[k] = map[string]bool{}
			}
			if !seen[k][sys.System] {
				seen[k][sys.System] = true
				g.Systems = append(g.Systems, sys.System)
			}
			g.Outcomes++
			if d.Vulnerability() {
				g.Vulnerabilities++
			}
			if d.Err == "" {
				g.Reactions[d.ReactionName()]++
			}
		}
	}
	out := make([]Group, 0, len(groups))
	for _, g := range groups {
		if q.MinSystems > 1 && len(g.Systems) < q.MinSystems {
			continue
		}
		sort.Strings(g.Systems)
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Systems) != len(out[j].Systems) {
			return len(out[i].Systems) > len(out[j].Systems)
		}
		if out[i].Param != out[j].Param {
			return out[i].Param < out[j].Param
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// candidates picks the narrowest posting list for the query.
func (s *System) candidates(q Query) []int {
	var lists [][]int
	if q.Param != "" {
		lists = append(lists, s.ByParam[q.Param])
	}
	if q.Kind != "" {
		lists = append(lists, s.ByKind[q.Kind])
	}
	if q.Reaction != "" {
		lists = append(lists, s.ByReaction[q.Reaction])
	}
	if !q.All {
		lists = append(lists, s.Vulnerable)
	}
	if len(lists) == 0 {
		all := make([]int, len(s.Docs))
		for i := range all {
			all[i] = i
		}
		return all
	}
	best := lists[0]
	for _, l := range lists[1:] {
		if len(l) < len(best) {
			best = l
		}
	}
	return best
}

// matches re-checks every filter against one doc (the posting list only
// guaranteed one of them).
func (q Query) matches(d *Doc) bool {
	if q.Param != "" && d.Param != q.Param {
		return false
	}
	if q.Kind != "" && d.Kind != q.Kind {
		return false
	}
	if q.Reaction != "" && (d.Err != "" || d.ReactionName() != q.Reaction) {
		return false
	}
	if !q.All && !d.Vulnerability() {
		return false
	}
	return true
}
