// Package spex is the constraint-inference engine (the paper's §2). It
// wires the pipeline together: parse the corpus (frontend), extract
// parameter-to-variable mappings from annotations (mapping), propagate
// data flow and collect observations (dataflow), and derive the five kinds
// of configuration constraints. It also scores inference accuracy against
// a ground-truth constraint set (Table 12).
package spex

import (
	"context"
	"fmt"
	"math"
	"sort"

	"spex/internal/annot"
	"spex/internal/apispec"
	"spex/internal/constraint"
	"spex/internal/dataflow"
	"spex/internal/engine"
	"spex/internal/frontend"
	"spex/internal/mapping"
	"spex/internal/sim"
)

// Options tune the inference engine. The defaults are the paper's.
type Options struct {
	// DepConfidence is the MAY-belief confidence threshold for reporting
	// control dependencies (paper §2.2.4; default 0.75).
	DepConfidence float64
	// MaxRelHops bounds the number of intermediate variables a value
	// relationship may be transited through (paper §2.2.5; default 1).
	MaxRelHops int
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{DepConfidence: 0.75, MaxRelHops: 1}
}

// UnsafeUse records a parameter flowing through an unsafe transformation
// API (Table 8).
type UnsafeUse struct {
	Param string
	API   string
	Loc   constraint.SourceLoc
}

// Result is the outcome of analyzing one target system.
type Result struct {
	System string
	Set    *constraint.Set
	Pairs  []mapping.Pair
	Obs    []dataflow.Obs
	// LoA is the lines-of-annotation count (Table 4).
	LoA int
	// LoC is the corpus size in source lines (Table 4).
	LoC int
	// Params is the number of distinct mapped parameters (Table 4).
	Params int
	// Unsafe lists unsafe transformation-API uses.
	Unsafe []UnsafeUse
	// Convention is the mapping convention detected from annotations
	// (Table 1).
	Convention string
}

// Infer runs the full pipeline over a source corpus. The manual (may be
// nil) marks inferred constraints as documented or not.
func Infer(system string, sources map[string]string, annText string, manual map[string]sim.ManualEntry, db *apispec.DB, opts Options) (*Result, error) {
	if opts.DepConfidence == 0 {
		opts.DepConfidence = 0.75
	}
	if opts.MaxRelHops == 0 {
		opts.MaxRelHops = 1
	}
	proj, err := frontend.Parse(system, sources)
	if err != nil {
		return nil, fmt.Errorf("spex: %w", err)
	}
	af, err := annot.Parse(annText)
	if err != nil {
		return nil, fmt.Errorf("spex: %w", err)
	}
	pairs, err := mapping.Extract(proj, af)
	if err != nil {
		return nil, fmt.Errorf("spex: %w", err)
	}
	eng := dataflow.New(proj, db)
	for _, p := range pairs {
		eng.Seed(p.Param, p.Loc)
	}
	obs := eng.Run()

	res := &Result{
		System:     system,
		Set:        constraint.NewSet(system),
		Pairs:      pairs,
		Obs:        obs,
		LoA:        af.LoA,
		LoC:        proj.LoC,
		Convention: mapping.Convention(af),
	}
	paramSet := map[string]bool{}
	for _, p := range pairs {
		paramSet[p.Param] = true
	}
	res.Params = len(paramSet)

	d := &deriver{proj: proj, pairs: pairs, obs: obs, opts: opts, res: res, db: db}
	d.basicTypes()
	d.semanticTypes()
	d.ranges()
	d.controlDeps()
	d.valueRels()
	d.unsafeUses()

	if manual != nil {
		for _, c := range res.Set.Constraints {
			if me, ok := manual[c.Param]; ok {
				c.Documented = me.DocumentsKind(c.Kind)
			}
		}
	}
	return res, nil
}

type deriver struct {
	proj  *frontend.Project
	pairs []mapping.Pair
	obs   []dataflow.Obs
	opts  Options
	res   *Result
	db    *apispec.DB
}

func (d *deriver) params() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range d.pairs {
		if !seen[p.Param] {
			seen[p.Param] = true
			out = append(out, p.Param)
		}
	}
	sort.Strings(out)
	return out
}

func (d *deriver) obsFor(param string, kind dataflow.ObsKind) []dataflow.Obs {
	var out []dataflow.Obs
	for _, o := range d.obs {
		if o.Param == param && o.Kind == kind {
			out = append(out, o)
		}
	}
	return out
}

// seedType returns the declared type of a parameter's mapped location.
func (d *deriver) seedType(param string) (constraint.BasicType, constraint.SourceLoc) {
	for _, p := range d.pairs {
		if p.Param != param {
			continue
		}
		if t, ok := locDeclaredType(d.proj, p.Loc); ok {
			return t, p.Site
		}
	}
	return constraint.BasicUnknown, constraint.SourceLoc{}
}

func locDeclaredType(proj *frontend.Project, loc dataflow.Loc) (constraint.BasicType, bool) {
	s := string(loc)
	if len(s) < 3 {
		return constraint.BasicUnknown, false
	}
	body := s[2:]
	switch s[:2] {
	case "G:":
		if t, ok := proj.PkgVars[body]; ok {
			return t.BasicOf(), true
		}
	case "F:":
		for i := 0; i < len(body); i++ {
			if body[i] == '.' {
				st, fld := body[:i], body[i+1:]
				if si, ok := proj.Structs[st]; ok {
					if ft, ok := si.Fields[fld]; ok {
						return ft.BasicOf(), true
					}
				}
			}
		}
	case "P:":
		for i := len(body) - 1; i >= 0; i-- {
			if body[i] == '.' {
				fn, pname := body[:i], body[i+1:]
				if fi, ok := proj.Funcs[fn]; ok {
					for j, n := range fi.ParamNames {
						if n == pname {
							return fi.ParamTypes[j].BasicOf(), true
						}
					}
				}
				break
			}
		}
	}
	return constraint.BasicUnknown, false
}

// basicTypes applies the first-cast-wins rule (paper §2.2.2): a parameter
// stored as a string and later transformed takes the type after the first
// transformation; otherwise the declared type of its variable.
func (d *deriver) basicTypes() {
	for _, param := range d.params() {
		declared, site := d.seedType(param)
		casts := d.obsFor(param, dataflow.ObsType)
		sort.SliceStable(casts, func(i, j int) bool { return casts[i].Hops < casts[j].Hops })

		chosen := declared
		loc := site
		if declared == constraint.BasicString || declared == constraint.BasicUnknown {
			// First-cast-wins, preferring explicit source-level
			// conversions (the declared width) over transformation-API
			// return types (which only reveal "some integer").
			for _, explicitOnly := range []bool{true, false} {
				if chosen != declared && chosen != constraint.BasicUnknown {
					break
				}
				for _, c := range casts {
					if explicitOnly && !c.Explicit {
						continue
					}
					if c.Basic != constraint.BasicUnknown && c.Basic != constraint.BasicString {
						chosen = c.Basic
						loc = c.Loc
						break
					}
				}
			}
		}
		if chosen == constraint.BasicUnknown {
			// Everything arrives as a string from the configuration
			// file; with no transformation the basic type is string.
			chosen = constraint.BasicString
		}
		d.res.Set.Add(&constraint.Constraint{
			Kind: constraint.KindBasicType, Param: param, Basic: chosen, Loc: loc,
		})
	}
}

func (d *deriver) semanticTypes() {
	for _, param := range d.params() {
		sems := d.obsFor(param, dataflow.ObsSemantic)
		sort.SliceStable(sems, func(i, j int) bool { return sems[i].Hops < sems[j].Hops })
		byType := map[constraint.SemanticType]*constraint.Constraint{}
		for _, o := range sems {
			c, ok := byType[o.Semantic]
			if !ok {
				c = &constraint.Constraint{
					Kind: constraint.KindSemanticType, Param: param,
					Semantic: o.Semantic, Unit: o.Unit, Loc: o.Loc,
				}
				if c.Unit == apispec.UnitOfDuration {
					c.Unit = constraint.UnitNone
				}
				byType[o.Semantic] = c
				d.res.Set.Add(c)
				continue
			}
			if c.Unit == constraint.UnitNone && o.Unit != constraint.UnitNone && o.Unit != apispec.UnitOfDuration {
				c.Unit = o.Unit
			}
		}
		// Case sensitivity from value comparisons.
		strCmps := d.obsFor(param, dataflow.ObsCompareStr)
		known, insens := false, false
		for _, o := range strCmps {
			if o.Detail == "default" {
				continue
			}
			known = true
			if o.CaseInsensitive {
				insens = true
			}
		}
		if known {
			for _, c := range byType {
				c.CaseKnown, c.CaseSensitive = true, !insens
			}
			if len(byType) == 0 {
				// Pure enum parameter with no semantic API: still record
				// case semantics on the range constraint (built later);
				// store a marker via a dedicated semantic-less constraint
				// is avoided — ranges carry it.
				_ = insens
			}
		}
	}
}

// ranges derives numeric interval constraints and enumerative constraints
// (paper §2.2.3).
func (d *deriver) ranges() {
	for _, param := range d.params() {
		d.numericRange(param)
		d.enumRange(param)
	}
}

func (d *deriver) numericRange(param string) {
	cmps := d.obsFor(param, dataflow.ObsCompareConst)
	if len(cmps) == 0 {
		return
	}
	// Collect breakpoints.
	pts := map[int64]bool{}
	for _, o := range cmps {
		pts[o.Value] = true
	}
	sorted := make([]int64, 0, len(pts))
	for v := range pts {
		sorted = append(sorted, v)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	// Elementary intervals around the breakpoints.
	var intervals []constraint.Interval
	add := func(iv constraint.Interval) { intervals = append(intervals, iv) }
	add(constraint.Interval{HasMax: true, Max: sorted[0] - 1})
	for i, b := range sorted {
		add(constraint.Interval{HasMin: true, Min: b, HasMax: true, Max: b})
		if i+1 < len(sorted) {
			if b+1 <= sorted[i+1]-1 {
				add(constraint.Interval{HasMin: true, Min: b + 1, HasMax: true, Max: sorted[i+1] - 1})
			}
		}
	}
	add(constraint.Interval{HasMin: true, Min: sorted[len(sorted)-1] + 1})

	// Validity per elementary interval from branch behaviour at a sample
	// point. Equality chains ("v==0 ... else if v==1 ... else reset")
	// need chain semantics: the else of a later arm never executes for a
	// sample that matches an earlier arm.
	eqSet := map[int64]bool{}
	for _, o := range cmps {
		if o.Op == constraint.OpEQ {
			eqSet[o.Value] = true
		}
	}
	anyInvalid := false
	for i := range intervals {
		sample := samplePoint(intervals[i])
		valid := true
		for _, o := range cmps {
			taken := o.Op.Holds(sample, o.Value)
			if o.Op == constraint.OpEQ && !taken && eqSet[sample] {
				continue // an earlier equality arm handles this sample
			}
			var be dataflow.BranchBehavior
			if taken {
				be = o.ThenBe
			} else {
				be = o.ElseBe
			}
			if be.Invalid() {
				valid = false
				break
			}
		}
		intervals[i].Valid = valid
		if !valid {
			anyInvalid = true
		}
	}
	if !anyInvalid {
		// All-valid partitions carry no constraint signal; emitting them
		// would flood the set with guard conditions (paper accepts some
		// false positives but we prune the obvious ones).
		return
	}
	merged := mergeIntervals(intervals)
	// Use the first comparison's location as the constraint location.
	d.res.Set.Add(&constraint.Constraint{
		Kind: constraint.KindRange, Param: param,
		Intervals: merged, Loc: cmps[0].Loc,
	})
}

func samplePoint(iv constraint.Interval) int64 {
	switch {
	case iv.HasMin && iv.HasMax:
		return iv.Min + (iv.Max-iv.Min)/2
	case iv.HasMin:
		return iv.Min + 1
	case iv.HasMax:
		return iv.Max - 1
	default:
		return 0
	}
}

func mergeIntervals(in []constraint.Interval) []constraint.Interval {
	var out []constraint.Interval
	for _, iv := range in {
		n := len(out)
		if n > 0 && out[n-1].Valid == iv.Valid && out[n-1].HasMax && iv.HasMin && out[n-1].Max+1 == iv.Min {
			out[n-1].Max = iv.Max
			out[n-1].HasMax = iv.HasMax
			continue
		}
		out = append(out, iv)
	}
	if len(out) > 0 {
		last := &out[len(out)-1]
		if !last.HasMax {
			// keep open end
			_ = last
		}
	}
	return out
}

func (d *deriver) enumRange(param string) {
	cmps := d.obsFor(param, dataflow.ObsCompareStr)
	if len(cmps) == 0 {
		return
	}
	seen := map[string]*constraint.EnumValue{}
	var order []string
	var defaultOverrule bool
	var loc constraint.SourceLoc
	caseInsens := false
	for _, o := range cmps {
		if loc.File == "" {
			loc = o.Loc
		}
		if o.CaseInsensitive {
			caseInsens = true
		}
		if o.Detail == "default" {
			if o.ThenBe.ResetsParam {
				defaultOverrule = true
			}
			continue
		}
		if o.Op == constraint.OpNE {
			continue
		}
		ev, ok := seen[o.StrValue]
		if !ok {
			ev = &constraint.EnumValue{Value: o.StrValue, Valid: true}
			seen[o.StrValue] = ev
			order = append(order, o.StrValue)
		}
		if o.ThenBe.Exits {
			ev.Valid = false
		}
		// The matched branch resetting the parameter to a semantically
		// different value is an overruling of that specific value
		// ("on" assigned as true is the setting itself, not an
		// overrule).
		if o.ThenBe.ResetsParam && !equivConfigValue(o.ThenBe.ResetValue, o.StrValue) {
			ev.Overruled = true
		}
		// An else-branch that silently resets overrules everything
		// outside the matched set.
		if o.HasElse && o.ElseBe.ResetsParam && !o.ElseBe.LogsMessage {
			defaultOverrule = true
		}
	}
	if len(order) == 0 {
		return
	}
	enum := make([]constraint.EnumValue, 0, len(order))
	for _, v := range order {
		enum = append(enum, *seen[v])
	}
	if defaultOverrule {
		// Mark the enum as closed with silent overruling of unlisted
		// values: record a sentinel invalid entry.
		enum = append(enum, constraint.EnumValue{Value: "*", Valid: false, Overruled: true})
	}
	d.res.Set.Add(&constraint.Constraint{
		Kind: constraint.KindRange, Param: param, Enum: enum,
		CaseKnown: true, CaseSensitive: !caseInsens, Loc: loc,
	})
}

// equivConfigValue reports whether two configuration value spellings are
// semantically equivalent (boolean synonyms).
func equivConfigValue(a, b string) bool {
	norm := func(s string) string {
		switch s {
		case "true", "on", "1", "yes":
			return "on"
		case "false", "off", "0", "no":
			return "off"
		}
		return s
	}
	return norm(a) == norm(b)
}

// controlDeps aggregates dominated usages into control dependencies with
// MAY-belief confidence (paper §2.2.4).
func (d *deriver) controlDeps() {
	for _, param := range d.params() {
		all := d.obsFor(param, dataflow.ObsUsage)
		// MAY-belief counting: the denominator is the set of usage
		// statements dominated by *some* configuration condition —
		// usages on unconditional paths (e.g. shared parse helpers,
		// which a context-sensitive analysis would separate per call
		// site) express no belief either way.
		var usages []dataflow.Obs
		for _, u := range all {
			if len(u.Dominators) > 0 {
				usages = append(usages, u)
			}
		}
		if len(usages) == 0 {
			continue
		}
		type key struct {
			peer, value string
			op          constraint.Op
		}
		counts := map[key]int{}
		locs := map[key]constraint.SourceLoc{}
		for _, u := range usages {
			seenInUsage := map[key]bool{}
			for _, dref := range u.Dominators {
				k := key{peer: dref.Peer, value: dref.Value, op: dref.Op}
				if !seenInUsage[k] {
					seenInUsage[k] = true
					counts[k]++
					if _, ok := locs[k]; !ok {
						locs[k] = u.Loc
					}
				}
			}
		}
		total := float64(len(usages))
		keys := make([]key, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].peer != keys[j].peer {
				return keys[i].peer < keys[j].peer
			}
			if keys[i].op != keys[j].op {
				return keys[i].op < keys[j].op
			}
			return keys[i].value < keys[j].value
		})
		for _, k := range keys {
			conf := float64(counts[k]) / total
			if conf+1e-9 < d.opts.DepConfidence {
				continue
			}
			d.res.Set.Add(&constraint.Constraint{
				Kind: constraint.KindControlDep, Param: param,
				Peer: k.peer, Cond: k.op, Value: k.value,
				Confidence: math.Round(conf*1000) / 1000,
				Loc:        locs[k],
			})
		}
	}
}

// valueRels derives value relationships within the hop budget (§2.2.5).
func (d *deriver) valueRels() {
	for _, o := range d.obs {
		if o.Kind != dataflow.ObsRel {
			continue
		}
		if o.Hops > d.opts.MaxRelHops || o.PeerHops > d.opts.MaxRelHops {
			continue
		}
		d.res.Set.Add(&constraint.Constraint{
			Kind: constraint.KindValueRel, Param: o.Param,
			Rel: o.RelOp, Peer: o.Peer, Loc: o.Loc,
		})
	}
}

func (d *deriver) unsafeUses() {
	seen := map[string]bool{}
	add := func(param, api string, loc constraint.SourceLoc) {
		k := param + "|" + api
		if seen[k] {
			return
		}
		seen[k] = true
		d.res.Unsafe = append(d.res.Unsafe, UnsafeUse{Param: param, API: api, Loc: loc})
	}
	for _, o := range d.obs {
		if o.Kind == dataflow.ObsUnsafe {
			add(o.Param, o.API, o.Loc)
		}
	}
	// Comparison-mapped parameters: the raw value string is parsed
	// upstream of the mapped variable; the mapping toolkit records the
	// calls on that path.
	for _, p := range d.pairs {
		for _, call := range p.RHSCalls {
			if spec, ok := d.db.Lookup(call); ok && spec.Unsafe {
				add(p.Param, call, p.Site)
			}
		}
	}
	sort.Slice(d.res.Unsafe, func(i, j int) bool {
		if d.res.Unsafe[i].Param != d.res.Unsafe[j].Param {
			return d.res.Unsafe[i].Param < d.res.Unsafe[j].Param
		}
		return d.res.Unsafe[i].API < d.res.Unsafe[j].API
	})
}

// APIImporter is implemented by targets that ship proprietary library
// APIs; SPEX imports them into the knowledge base before inference (the
// paper's customization hook, used for Storage-A).
type APIImporter interface {
	ImportAPIs(db *apispec.DB)
}

// InferSystem analyzes a simulated target system with the standard
// knowledge base (plus the target's own imported APIs) and default
// options.
func InferSystem(sys sim.System) (*Result, error) {
	db := apispec.New()
	if imp, ok := sys.(APIImporter); ok {
		imp.ImportAPIs(db)
	}
	return Infer(sys.Name(), sys.Sources(), sys.Annotations(), sys.Manual(), db, DefaultOptions())
}

// InferAll analyzes several target systems through the engine scheduler,
// workers wide (0 = one per CPU). Results come back in input order; the
// first inference error (in input order) aborts with that error, as the
// sequential loop it replaces did.
func InferAll(ctx context.Context, systems []sim.System, workers int) ([]*Result, error) {
	results, cancelErr := engine.Run(ctx, len(systems), workers, func(_ context.Context, i int) (*Result, error) {
		return InferSystem(systems[i])
	})
	if cancelErr != nil {
		return nil, cancelErr
	}
	if err := engine.FirstError(results); err != nil {
		return nil, err
	}
	out, _ := engine.Values(results)
	return out, nil
}
