package inject

import (
	"fmt"
	"sort"
	"strings"

	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/engine"
)

// The paper notes that the campaign cost is a one-time cost because
// SPEX-INJ can be made incremental: after a code revision, only the
// constraints affected by the modification need to be retested (§3.1).
// This file implements that delta computation.

// Delta describes how a system's constraint set changed between two
// analysis runs.
type Delta struct {
	// Added are constraints present only in the new set.
	Added []*constraint.Constraint
	// Removed are constraints present only in the old set; their past
	// outcomes are stale and should be dropped from dashboards.
	Removed []*constraint.Constraint
	// Unchanged are constraints present in both.
	Unchanged []*constraint.Constraint
}

// Diff computes the constraint delta between two inference runs.
// Constraints are compared by identity (kind, parameter, and the
// kind-specific payload) — a changed range boundary yields one Removed
// and one Added entry.
func Diff(old, new *constraint.Set) Delta {
	oldByID := map[string]*constraint.Constraint{}
	for _, c := range old.Constraints {
		oldByID[c.ID()] = c
	}
	var d Delta
	seen := map[string]bool{}
	for _, c := range new.Constraints {
		id := c.ID()
		seen[id] = true
		if _, ok := oldByID[id]; ok {
			d.Unchanged = append(d.Unchanged, c)
		} else {
			d.Added = append(d.Added, c)
		}
	}
	for id, c := range oldByID {
		if !seen[id] {
			d.Removed = append(d.Removed, c)
		}
	}
	sort.Slice(d.Removed, func(i, j int) bool { return d.Removed[i].ID() < d.Removed[j].ID() })
	return d
}

// AffectedParams returns the parameters touched by the delta (sorted):
// any parameter with an added or removed constraint, plus the peers of
// added/removed correlations.
func (d Delta) AffectedParams() []string {
	set := map[string]bool{}
	mark := func(cs []*constraint.Constraint) {
		for _, c := range cs {
			set[c.Param] = true
			if c.Peer != "" {
				set[c.Peer] = true
			}
		}
	}
	mark(d.Added)
	mark(d.Removed)
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ResultCache stores campaign outcomes keyed by misconfiguration
// identity (CacheKey). Seeded from a previous campaign's snapshot
// (campaignstore.Store.Prepare), it lets an incremental rerun replay
// every outcome whose constraint the code revision did not touch.
type ResultCache = engine.Cache[Outcome]

// NewResultCache returns an empty incremental result cache.
func NewResultCache() *ResultCache { return engine.NewCache[Outcome]() }

// CacheKey is the stable identity of a misconfiguration for incremental
// retesting: the violated constraint's identity (which changes whenever
// the constraint's kind-specific payload changes), the generation rule,
// and the injected values and environment actions. Two analysis runs
// that infer the same constraint produce the same key, so the recorded
// outcome replays; a changed constraint yields a new key and re-executes.
func CacheKey(m confgen.Misconf) string {
	var b strings.Builder
	// Every free-form component is length-prefixed so injected values
	// containing the separator characters cannot collide two distinct
	// misconfigurations into one key.
	field := func(s string) { fmt.Fprintf(&b, "|%d:%s", len(s), s) }
	if m.Violates != nil {
		field(m.Violates.ID())
	} else {
		field("")
	}
	field(m.ID)
	keys := make([]string, 0, len(m.Values))
	for k := range m.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		field(k)
		field(m.Values[k])
	}
	for _, a := range m.Env {
		fmt.Fprintf(&b, "|env:%d:%d", a.Kind, a.Port)
		field(a.Path)
	}
	return b.String()
}

// SelectRetests filters a full misconfiguration list down to the ones an
// incremental campaign must rerun: misconfigurations violating an added
// constraint, or touching any affected parameter (whose behaviour the
// revision changed).
func SelectRetests(ms []confgen.Misconf, d Delta) []confgen.Misconf {
	addedIDs := map[string]bool{}
	for _, c := range d.Added {
		addedIDs[c.ID()] = true
	}
	affected := map[string]bool{}
	for _, p := range d.AffectedParams() {
		affected[p] = true
	}
	var out []confgen.Misconf
	for _, m := range ms {
		if m.Violates != nil && addedIDs[m.Violates.ID()] {
			out = append(out, m)
			continue
		}
		touched := false
		for p := range m.Values {
			if affected[p] {
				touched = true
				break
			}
		}
		if touched {
			out = append(out, m)
		}
	}
	return out
}
