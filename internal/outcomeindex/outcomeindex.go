// Package outcomeindex builds and persists an inverted index over a
// campaign's recorded outcomes — the read-side companion of the binary
// snapshot format in internal/campaignstore. A snapshot answers "replay
// this exact campaign"; the index answers the daemon's query traffic
// ("this system's outcomes, page 3", "which misconfigurations break
// more than N systems?", "table 5's tallies") without re-parsing a
// snapshot at all.
//
// The shape is keyword → posting list: every outcome becomes one
// compact Doc (the projection the API and the tables actually consume —
// no log dumps, no env actions, no constraint payloads), and posting
// lists map each parameter, constraint kind, reaction, and source
// location to the positions of its docs. Per-system aggregates
// (reaction tallies, vulnerability and unique-location counts) are
// precomputed when the index is built or loaded, so serving table 3/5
// is a map lookup, not a scan.
//
// An index is derived data, never authoritative: it is rebuilt from its
// snapshot whenever the sidecar is missing or stale (the sidecar
// records the snapshot file's size and mtime; any mismatch invalidates
// it), so deleting every *.campaign.idx file is always safe. The
// sidecar persists only the docs and the header; the posting lists and
// aggregates are derived from the docs on load by the same code that
// builds them, so a tampered or corrupt sidecar can never serve
// positions or tallies its docs do not back.
package outcomeindex

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"spex/internal/constraint"
	"spex/internal/inject"
)

// Version is the sidecar layout version. A sidecar written under a
// different version is treated as stale and rebuilt from its snapshot.
//
// v2 stopped persisting the posting lists and aggregates.
const Version = 2

// Doc is one indexed outcome: the projection of inject.Outcome that the
// HTTP API and the evaluation tables consume. Docs are stored in
// ascending Key order, so posting lists (positions into Docs) enumerate
// outcomes deterministically.
type Doc struct {
	// Key is the outcome's replay identity (inject.CacheKey).
	Key string `json:"key"`
	// ID, Param, Rule and Description identify the misconfiguration.
	ID          string `json:"id"`
	Param       string `json:"param"`
	Rule        string `json:"rule,omitempty"`
	Description string `json:"description,omitempty"`
	// Kind names the violated constraint's kind ("" when unknown).
	Kind string `json:"kind,omitempty"`
	// Reaction is the persisted inject.Reaction value.
	Reaction int `json:"reaction"`
	// Err is the harness failure, if any; errored docs are excluded
	// from reaction tallies exactly like Report.CountByReaction.
	Err        string `json:"err,omitempty"`
	Pinpointed bool   `json:"pinpointed,omitempty"`
	FailedTest string `json:"failed_test,omitempty"`
	// File/Line/Func are the violated constraint's source location.
	File    string `json:"file,omitempty"`
	Line    int    `json:"line,omitempty"`
	Func    string `json:"func,omitempty"`
	SimCost int    `json:"sim_cost,omitempty"`
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
	Outcomes int `json:"outcomes"`
	// Errors counts harness failures (excluded from ByReaction).
	Errors int `json:"errors,omitempty"`
	// ByReaction tallies err-free docs per reaction name — the same
	// numbers as inject.Report.CountByReaction.
	ByReaction map[string]int `json:"by_reaction"`
	// Vulnerabilities counts err-free docs whose reaction is a
	// vulnerability.
	Vulnerabilities int `json:"vulnerabilities"`
	// UniqueLocations counts distinct file:line locations behind the
	// vulnerabilities (Table 5b).
	UniqueLocations int `json:"unique_locations"`
}

// System is one system's index: docs, posting lists, and aggregates,
// plus the snapshot identity it was derived from.
type System struct {
	// System is the target system's name.
	System string `json:"system"`
	// Fingerprint is the source snapshot's replay-equivalence hash
	// (campaignstore.Snapshot.Fingerprint) — the ETag of every read
	// endpoint serving this system.
	Fingerprint string `json:"fingerprint"`
	// SavedAt, Options and SetFingerprint mirror the snapshot header.
	SavedAt        time.Time `json:"saved_at"`
	Options        string    `json:"options"`
	SetFingerprint string    `json:"set_fingerprint"`
	// Docs holds every outcome's projection in ascending Key order.
	Docs []Doc `json:"docs"`
	// Posting lists: positions into Docs, ascending. Like Agg they are
	// derived from Docs (Builder.Finish) and never persisted.
	ByParam    map[string][]int `json:"-"`
	ByKind     map[string][]int `json:"-"`
	ByReaction map[string][]int `json:"-"`
	// ByLoc keys are "file:line".
	ByLoc map[string][]int `json:"-"`
	// Vulnerable lists the vulnerability docs.
	Vulnerable []int `json:"-"`
	// Agg holds the precomputed tallies.
	Agg Aggregates `json:"-"`
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
// campaignstore's snapshot writer feeds during Save and merge, so the
// index is rebuilt incrementally on every save instead of by a second
// pass over the store.
type Builder struct {
	meta Meta
	docs []Doc
}

// NewBuilder starts an index build for one system.
func NewBuilder(meta Meta) *Builder { return &Builder{meta: meta} }

// Add indexes one outcome. Callers add outcomes in ascending key order
// (the snapshot record order); Finish sorts defensively either way.
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
	sort.Slice(b.docs, func(i, j int) bool { return b.docs[i].Key < b.docs[j].Key })
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
		ByLoc:          map[string][]int{},
		Agg:            Aggregates{ByReaction: map[string]int{}},
	}
	locs := map[string]bool{}
	for i := range sys.Docs {
		d := &sys.Docs[i]
		sys.Agg.Outcomes++
		sys.ByParam[d.Param] = append(sys.ByParam[d.Param], i)
		if d.Kind != "" {
			sys.ByKind[d.Kind] = append(sys.ByKind[d.Kind], i)
		}
		if d.Err != "" {
			sys.Agg.Errors++
			continue
		}
		name := d.ReactionName()
		sys.ByReaction[name] = append(sys.ByReaction[name], i)
		sys.Agg.ByReaction[name]++
		if d.Vulnerability() {
			sys.Vulnerable = append(sys.Vulnerable, i)
			sys.Agg.Vulnerabilities++
			loc := fmt.Sprintf("%s:%d", d.File, d.Line)
			sys.ByLoc[loc] = append(sys.ByLoc[loc], i)
			locs[loc] = true
		}
	}
	sys.Agg.UniqueLocations = len(locs)
	return sys
}

// Build indexes a full outcome map in one call — the rebuild path for
// stores whose sidecar is missing or stale.
func Build(meta Meta, outcomes map[string]inject.Outcome) *System {
	b := NewBuilder(meta)
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.Add(k, outcomes[k])
	}
	return b.Finish()
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

// ---- sidecar persistence ----

// File is the on-disk sidecar: the index's header and docs plus the
// identity of the snapshot file it was derived from. A sidecar whose
// Snap/SnapSize/SnapMTime no longer match the snapshot on disk is stale
// and must be rebuilt — the mtime+size pair changes on every atomic
// snapshot rename, so a reader can validate freshness with one stat
// call.
type File struct {
	Version int `json:"version"`
	// Snap is the snapshot file's base name; SnapSize/SnapMTime its
	// size and mtime (UnixNano) at index-build time.
	Snap      string  `json:"snap"`
	SnapSize  int64   `json:"snap_size"`
	SnapMTime int64   `json:"snap_mtime"`
	Sys       *System `json:"sys"`
}

// WriteFile persists the sidecar atomically (temp file + rename). No
// fsync: the index is reconstructible from its snapshot.
func WriteFile(path string, f *File) error {
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("outcomeindex: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("outcomeindex: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("outcomeindex: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("outcomeindex: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("outcomeindex: %w", err)
	}
	return nil
}

// ReadFile loads a sidecar and derives its posting lists and aggregates
// from the docs, through the same Builder.Finish that built them. Any
// structural problem is an error — including docs that are not
// strictly ascending by key, the order every writer produces; the
// caller treats every error as "stale, rebuild from the snapshot".
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := decodeFile(data)
	if err != nil {
		return nil, fmt.Errorf("outcomeindex: sidecar %s: %w", path, err)
	}
	return f, nil
}

func decodeFile(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("corrupt: %w", err)
	}
	if f.Version != Version {
		return nil, fmt.Errorf("version %d, this build writes %d", f.Version, Version)
	}
	if f.Sys == nil {
		return nil, errors.New("holds no index")
	}
	docs := f.Sys.Docs
	for i := 1; i < len(docs); i++ {
		if docs[i-1].Key >= docs[i].Key {
			return nil, fmt.Errorf("doc %d (%q) is not after %q", i, docs[i].Key, docs[i-1].Key)
		}
	}
	b := NewBuilder(Meta{System: f.Sys.System, Fingerprint: f.Sys.Fingerprint,
		SavedAt: f.Sys.SavedAt, Options: f.Sys.Options, SetFingerprint: f.Sys.SetFingerprint})
	b.docs = docs
	f.Sys = b.Finish()
	return &f, nil
}
