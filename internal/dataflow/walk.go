package dataflow

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"

	"spex/internal/apispec"
	"spex/internal/cfg"
	"spex/internal/constraint"
	"spex/internal/frontend"
)

// Engine runs the two-pass analysis: taint propagation to a fixed point
// (pass 1), then observation collection on the tainted program slice
// (pass 2), mirroring the paper's two source scans (§2.2).
type Engine struct {
	Proj *frontend.Project
	DB   *apispec.DB

	taint    map[Loc]TaintSet
	pointsTo map[Loc]Loc // pointer local -> pointee (1-level alias tracking)

	collecting bool
	obs        []Obs
	graphs     map[string]*cfg.Graph
}

// New returns an engine over the parsed project using the API knowledge
// base db.
func New(proj *frontend.Project, db *apispec.DB) *Engine {
	return &Engine{
		Proj:     proj,
		DB:       db,
		taint:    make(map[Loc]TaintSet),
		pointsTo: make(map[Loc]Loc),
		graphs:   make(map[string]*cfg.Graph),
	}
}

// Seed marks loc as holding the value of the named configuration
// parameter (produced by the mapping toolkits).
func (e *Engine) Seed(param string, loc Loc) {
	ts := e.taint[loc]
	if ts == nil {
		ts = make(TaintSet)
		e.taint[loc] = ts
	}
	ts[param] = Taint{Hops: 0, Mult: 1}
}

// TaintAt returns the parameters tainting loc (sorted), for tests and
// diagnostics.
func (e *Engine) TaintAt(loc Loc) []string {
	ps := e.taint[loc].params()
	sort.Strings(ps)
	return ps
}

// Run propagates taint to a fixed point and then collects observations.
func (e *Engine) Run() []Obs {
	// Pass 1: fixed-point propagation.
	for i := 0; i < 64; i++ { // bound protects against oscillation
		e.collecting = false
		if !e.walkAll() {
			break
		}
	}
	// Pass 2: collection.
	e.collecting = true
	e.obs = nil
	e.walkAll()
	return e.obs
}

// walkAll walks every function; it reports whether any taint changed.
func (e *Engine) walkAll() bool {
	changed := false
	for _, name := range e.Proj.FuncNames() {
		if e.walkFunc(e.Proj.Funcs[name]) {
			changed = true
		}
	}
	return changed
}

// fnCtx carries per-function walk state.
type fnCtx struct {
	fi      *frontend.FuncInfo
	scope   *frontend.Scope
	graph   *cfg.Graph
	curStmt ast.Stmt
	changed bool
}

func (e *Engine) walkFunc(fi *frontend.FuncInfo) bool {
	if fi.Decl.Body == nil {
		return false
	}
	ctx := &fnCtx{fi: fi, scope: frontend.NewScope(nil)}
	for i, p := range fi.ParamNames {
		ctx.scope.Define(p, fi.ParamTypes[i])
	}
	if fi.RecvName != "" {
		ctx.scope.Define(fi.RecvName, fi.RecvType)
	}
	if e.collecting {
		g, ok := e.graphs[fi.Name]
		if !ok {
			g = cfg.Build(fi.Decl)
			e.graphs[fi.Name] = g
		}
		ctx.graph = g
	}
	e.walkStmts(ctx, fi.Decl.Body.List)
	return ctx.changed
}

func (e *Engine) walkStmts(ctx *fnCtx, list []ast.Stmt) {
	for _, s := range list {
		e.walkStmt(ctx, s)
	}
}

func (e *Engine) walkStmt(ctx *fnCtx, s ast.Stmt) {
	prev := ctx.curStmt
	ctx.curStmt = s
	defer func() { ctx.curStmt = prev }()

	switch st := s.(type) {
	case *ast.AssignStmt:
		e.walkAssign(ctx, st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				var t *frontend.Type
				if vs.Type != nil {
					t = e.Proj.ResolveTypeExpr(vs.Type)
				}
				for i, nm := range vs.Names {
					vt := t
					if vt == nil && i < len(vs.Values) {
						vt = e.Proj.TypeOf(vs.Values[i], ctx.scope)
					}
					if vt == nil {
						vt = &frontend.Type{Kind: frontend.KindUnknown}
					}
					ctx.scope.Define(nm.Name, vt)
					if i < len(vs.Values) {
						ts := e.taintOf(ctx, vs.Values[i])
						e.store(ctx, LocalLoc(ctx.fi.Name, nm.Name), ts.bump())
					}
				}
			}
		}
	case *ast.ExprStmt:
		e.taintOf(ctx, st.X) // walk for call effects
	case *ast.IfStmt:
		e.walkIf(ctx, st)
	case *ast.SwitchStmt:
		e.walkSwitch(ctx, st)
	case *ast.ForStmt:
		if st.Init != nil {
			e.walkStmt(ctx, st.Init)
		}
		if st.Cond != nil {
			e.condUsage(ctx, st.Cond)
			e.taintOf(ctx, st.Cond)
		}
		e.walkStmts(ctx, st.Body.List)
		if st.Post != nil {
			e.walkStmt(ctx, st.Post)
		}
	case *ast.RangeStmt:
		ts := e.taintOf(ctx, st.X)
		if key, ok := st.Key.(*ast.Ident); ok && key.Name != "_" {
			ctx.scope.Define(key.Name, frontend.Basic("int"))
		}
		if val, ok := st.Value.(*ast.Ident); ok && val != nil && val.Name != "_" {
			t := e.Proj.TypeOf(st.X, ctx.scope)
			var et *frontend.Type
			if t != nil && t.Elem != nil {
				et = t.Elem
			} else {
				et = &frontend.Type{Kind: frontend.KindUnknown}
			}
			ctx.scope.Define(val.Name, et)
			e.store(ctx, LocalLoc(ctx.fi.Name, val.Name), ts.bump())
		}
		e.walkStmts(ctx, st.Body.List)
	case *ast.ReturnStmt:
		for i, r := range st.Results {
			ts := e.taintOf(ctx, r)
			if len(ts) > 0 {
				e.store(ctx, RetLoc(ctx.fi.Name, i), ts)
			}
		}
	case *ast.BlockStmt:
		e.walkStmts(ctx, st.List)
	case *ast.IncDecStmt:
		e.taintOf(ctx, st.X)
	case *ast.GoStmt:
		e.taintOf(ctx, st.Call)
	case *ast.DeferStmt:
		e.taintOf(ctx, st.Call)
	case *ast.LabeledStmt:
		e.walkStmt(ctx, st.Stmt)
	}
}

func (e *Engine) walkAssign(ctx *fnCtx, st *ast.AssignStmt) {
	// Multi-value call: v, err := f(x).
	if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
		if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
			ts := e.taintOf(ctx, call)
			name := e.Proj.CallName(call, ctx.scope)
			for i, lhs := range st.Lhs {
				if st.Tok == token.DEFINE {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						t := e.resultType(name, i)
						ctx.scope.Define(id.Name, t)
					}
				}
				if i == 0 && len(ts) > 0 { // value result carries taint
					if loc, ok := e.locRef(ctx, lhs); ok {
						e.storeAssign(ctx, loc, lhs, ts)
					}
				} else if fi, ok := e.Proj.Funcs[name]; ok {
					if rts, ok2 := e.taint[RetLoc(fi.Name, i)]; ok2 {
						if loc, ok3 := e.locRef(ctx, lhs); ok3 {
							e.storeAssign(ctx, loc, lhs, rts)
						}
					}
				}
			}
			return
		}
	}
	for i, lhs := range st.Lhs {
		if i >= len(st.Rhs) {
			break
		}
		rhs := st.Rhs[i]
		ts := e.taintOf(ctx, rhs)
		if st.Tok == token.DEFINE {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				ctx.scope.Define(id.Name, e.Proj.TypeOf(rhs, ctx.scope))
			}
		}
		loc, ok := e.locRef(ctx, lhs)
		if !ok {
			continue
		}
		// Track &x pointer aliases (one level).
		if ue, isAddr := rhs.(*ast.UnaryExpr); isAddr && ue.Op == token.AND {
			if ptee, ok := e.locRef(ctx, ue.X); ok {
				e.pointsTo[loc] = ptee
			}
		}
		if st.Tok == token.ADD_ASSIGN || st.Tok == token.SUB_ASSIGN ||
			st.Tok == token.MUL_ASSIGN || st.Tok == token.QUO_ASSIGN {
			cur := e.taint[loc]
			if cur != nil {
				merged := cur.clone()
				mergeInto(merged, ts)
				ts = merged
			}
		}
		e.storeAssign(ctx, loc, lhs, ts)
		// Reset observation: a tainted location overwritten with a
		// constant.
		if e.collecting {
			if existing := e.taint[loc]; len(existing) > 0 {
				if v, isConst := e.Proj.ConstValue(rhs); isConst {
					e.emitResets(ctx, loc, strconv.FormatInt(v, 10), rhs)
				} else if sv, isStr := e.Proj.StrValue(rhs); isStr {
					e.emitResets(ctx, loc, sv, rhs)
				}
			}
		}
	}
}

func (e *Engine) emitResets(ctx *fnCtx, loc Loc, val string, at ast.Expr) {
	for p := range e.taint[loc] {
		e.obs = append(e.obs, Obs{
			Kind:   ObsReset,
			Param:  p,
			Detail: val,
			Loc:    e.Proj.Loc(at, ctx.fi.Name),
		})
	}
}

// storeAssign writes taint to an assignment target, bumping hops for
// locals.
func (e *Engine) storeAssign(ctx *fnCtx, loc Loc, lhs ast.Expr, ts TaintSet) {
	if len(ts) == 0 {
		return
	}
	if loc.IsLocal() {
		ts = ts.bump()
	}
	e.store(ctx, loc, ts)
}

func (e *Engine) store(ctx *fnCtx, loc Loc, ts TaintSet) {
	if len(ts) == 0 {
		return
	}
	dst := e.taint[loc]
	if dst == nil {
		dst = make(TaintSet)
		e.taint[loc] = dst
	}
	if mergeInto(dst, ts) {
		ctx.changed = true
	}
}

// resultType resolves the i'th result type of a named local function.
func (e *Engine) resultType(name string, i int) *frontend.Type {
	if fi, ok := e.Proj.Funcs[name]; ok && i < len(fi.Results) {
		return fi.Results[i]
	}
	if spec, ok := e.DB.Lookup(name); ok && i == 0 && spec.RetBasic != constraint.BasicUnknown {
		return frontend.Basic(basicTypeName(spec.RetBasic))
	}
	return &frontend.Type{Kind: frontend.KindUnknown}
}

func basicTypeName(b constraint.BasicType) string {
	switch b {
	case constraint.BasicBool:
		return "bool"
	case constraint.BasicFloat64:
		return "float64"
	case constraint.BasicString:
		return "string"
	case constraint.BasicUint64:
		return "uint64"
	default:
		return "int64"
	}
}

// locRef resolves an lvalue/rvalue expression to an abstract location.
func (e *Engine) locRef(ctx *fnCtx, expr ast.Expr) (Loc, bool) {
	switch v := expr.(type) {
	case *ast.Ident:
		if v.Name == "_" {
			return "", false
		}
		if _, isLocal := ctx.scope.Lookup(v.Name); isLocal {
			if e.isParamName(ctx, v.Name) {
				return ParamLoc(ctx.fi.Name, v.Name), true
			}
			return LocalLoc(ctx.fi.Name, v.Name), true
		}
		if _, ok := e.Proj.PkgVars[v.Name]; ok {
			return GlobalLoc(v.Name), true
		}
		return LocalLoc(ctx.fi.Name, v.Name), true
	case *ast.SelectorExpr:
		base := e.Proj.TypeOf(v.X, ctx.scope).Deref()
		if base != nil && base.Kind == frontend.KindStruct {
			return FieldLoc(base.Name, v.Sel.Name), true
		}
		// Unknown receiver: fall back to a flattened name so taint
		// still has somewhere to live (coarse).
		return Loc("X:" + flatten(v)), true
	case *ast.StarExpr:
		inner, ok := e.locRef(ctx, v.X)
		if !ok {
			return "", false
		}
		if ptee, ok := e.pointsTo[inner]; ok {
			return ptee, true
		}
		return inner, true
	case *ast.IndexExpr:
		return e.locRef(ctx, v.X)
	case *ast.ParenExpr:
		return e.locRef(ctx, v.X)
	}
	return "", false
}

func (e *Engine) isParamName(ctx *fnCtx, name string) bool {
	for _, p := range ctx.fi.ParamNames {
		if p == name {
			return true
		}
	}
	return name == ctx.fi.RecvName
}

func flatten(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return flatten(v.X) + "." + v.Sel.Name
	}
	return "?"
}

// taintOf computes the taint of an expression, walking nested calls for
// their propagation side effects and (when collecting) emitting
// observations for casts and known-API uses.
func (e *Engine) taintOf(ctx *fnCtx, expr ast.Expr) TaintSet {
	switch v := expr.(type) {
	case *ast.Ident:
		if loc, ok := e.locRef(ctx, v); ok {
			return e.taint[loc]
		}
		return nil
	case *ast.SelectorExpr:
		if loc, ok := e.locRef(ctx, v); ok {
			return e.taint[loc]
		}
		return nil
	case *ast.StarExpr, *ast.IndexExpr:
		if loc, ok := e.locRef(ctx, expr); ok {
			return e.taint[loc]
		}
		return nil
	case *ast.ParenExpr:
		return e.taintOf(ctx, v.X)
	case *ast.UnaryExpr:
		return e.taintOf(ctx, v.X)
	case *ast.BinaryExpr:
		lt := e.taintOf(ctx, v.X)
		rt := e.taintOf(ctx, v.Y)
		var out TaintSet
		if v.Op == token.MUL {
			if c, ok := e.Proj.ConstValue(v.Y); ok && len(lt) > 0 {
				out = lt.scaled(c)
				e.arithUsage(ctx, out, v)
				return out
			}
			if c, ok := e.Proj.ConstValue(v.X); ok && len(rt) > 0 {
				out = rt.scaled(c)
				e.arithUsage(ctx, out, v)
				return out
			}
		}
		out = make(TaintSet)
		mergeInto(out, lt)
		mergeInto(out, rt)
		switch v.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.AND, token.OR, token.XOR, token.SHL, token.SHR, token.AND_NOT:
			// Arithmetic is a usage statement (paper §2.2.4): branches,
			// arithmetic operations, and library-call arguments count;
			// plain assignment and parameter passing do not.
			e.arithUsage(ctx, out, v)
		}
		return out
	case *ast.CallExpr:
		return e.taintOfCall(ctx, v)
	case *ast.CompositeLit:
		out := make(TaintSet)
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				mergeInto(out, e.taintOf(ctx, kv.Value))
			} else {
				mergeInto(out, e.taintOf(ctx, el))
			}
		}
		return out
	}
	return nil
}

func (e *Engine) taintOfCall(ctx *fnCtx, call *ast.CallExpr) TaintSet {
	// Type conversion? int32(x), time.Duration(x), string(x)...
	if bt, isConv := e.conversionTarget(call); isConv && len(call.Args) == 1 {
		ts := e.taintOf(ctx, call.Args[0])
		if e.collecting && len(ts) > 0 && bt != constraint.BasicUnknown {
			for p, t := range ts {
				e.obs = append(e.obs, Obs{
					Kind: ObsType, Param: p, Basic: bt, Hops: t.Hops,
					Explicit: true, Loc: e.Proj.Loc(call, ctx.fi.Name),
				})
			}
		}
		return ts
	}

	name := e.Proj.CallName(call, ctx.scope)

	// Builtins that measure rather than transform: the result is not the
	// parameter's value.
	if name == "len" || name == "cap" {
		for _, arg := range call.Args {
			e.taintOf(ctx, arg) // still walk for nested call effects
		}
		return nil
	}

	// Known API?
	if spec, ok := e.DB.Lookup(name); ok {
		return e.applyAPISpec(ctx, call, name, spec)
	}

	// Local function: inter-procedural propagation.
	if fi, ok := e.Proj.Funcs[name]; ok {
		for i, arg := range call.Args {
			ts := e.taintOf(ctx, arg)
			if len(ts) == 0 || i >= len(fi.ParamNames) {
				continue
			}
			e.store(ctx, ParamLoc(fi.Name, fi.ParamNames[i]), ts)
		}
		// Receiver flows too: c.validate() taints validate's receiver.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && fi.RecvName != "" {
			ts := e.taintOf(ctx, sel.X)
			if len(ts) > 0 {
				e.store(ctx, ParamLoc(fi.Name, fi.RecvName), ts)
			}
		}
		return e.taint[RetLoc(fi.Name, 0)]
	}

	// Unknown call: union of argument taints (conservative).
	out := make(TaintSet)
	for _, arg := range call.Args {
		mergeInto(out, e.taintOf(ctx, arg))
	}
	return out
}

func (e *Engine) conversionTarget(call *ast.CallExpr) (constraint.BasicType, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		bt := frontend.BasicFromName(fun.Name)
		if bt != constraint.BasicUnknown {
			return bt, true
		}
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok && x.Name == "time" && fun.Sel.Name == "Duration" {
			return constraint.BasicInt64, true
		}
	}
	return constraint.BasicUnknown, false
}

func (e *Engine) applyAPISpec(ctx *fnCtx, call *ast.CallExpr, name string, spec *apispec.FuncSpec) TaintSet {
	out := make(TaintSet)
	for i, arg := range call.Args {
		ts := e.taintOf(ctx, arg)
		mergeInto(out, ts)
		if len(ts) == 0 || !e.collecting {
			continue
		}
		loc := e.Proj.Loc(call, ctx.fi.Name)
		if as, ok := spec.ArgAt(i); ok {
			for p, t := range ts {
				unit := as.Unit
				mult := t.Mult
				if mult == 0 {
					mult = 1
				}
				switch {
				case unit == apispec.UnitOfDuration:
					// Unit derives from the nanosecond multiplier.
					unit = nanosUnit(mult)
				case unit == constraint.UnitByte && mult > 1:
					if u, ok := apispec.SizeUnit(mult); ok {
						unit = u
					}
				case unit.IsTime() && mult > 1:
					if u, ok := apispec.TimeUnitScaled(unit, mult); ok {
						unit = u
					}
				}
				e.obs = append(e.obs, Obs{
					Kind: ObsSemantic, Param: p, Semantic: as.Semantic,
					Unit: unit, API: name, Mult: mult, Hops: t.Hops, Loc: loc,
				})
			}
			e.recordUsage(ctx, ts, call)
		}
		if spec.Unsafe {
			for p := range ts {
				e.obs = append(e.obs, Obs{Kind: ObsUnsafe, Param: p, API: name, Detail: name, Loc: loc})
			}
		}
		if spec.RetBasic != constraint.BasicUnknown {
			for p, t := range ts {
				e.obs = append(e.obs, Obs{
					Kind: ObsType, Param: p, Basic: spec.RetBasic, Hops: t.Hops, Loc: loc,
				})
			}
		}
	}
	// Case-sensitivity of comparison functions: EqualFold(x, "lit").
	if spec.Compare && e.collecting && len(call.Args) >= 2 {
		e.compareCall(ctx, call, spec)
	}
	// Only transformation APIs return the parameter's value; other known
	// APIs return derived data (handles, errors, booleans) that must not
	// carry value taint — otherwise "err := Bind(port)" taints err and
	// every later "err != nil" branch poses as a usage of the port.
	if spec.RetBasic == constraint.BasicUnknown {
		return nil
	}
	return out
}

func nanosUnit(mult int64) constraint.Unit {
	switch mult {
	case 1000:
		return constraint.UnitMicrosecond
	case 1000 * 1000:
		return constraint.UnitMillisecond
	case 1000 * 1000 * 1000:
		return constraint.UnitSecond
	case 60 * 1000 * 1000 * 1000:
		return constraint.UnitMinute
	case 3600 * 1000 * 1000 * 1000:
		return constraint.UnitHour
	default:
		return constraint.UnitNone // raw duration (nanoseconds)
	}
}

func (e *Engine) compareCall(ctx *fnCtx, call *ast.CallExpr, spec *apispec.FuncSpec) {
	a, b := call.Args[0], call.Args[1]
	ta, tb := e.taintOf(ctx, a), e.taintOf(ctx, b)
	lit := func(x ast.Expr) (string, bool) { return e.Proj.StrValue(x) }
	emit := func(ts TaintSet, other ast.Expr) {
		sv, ok := lit(other)
		if !ok {
			return
		}
		for p, t := range ts {
			e.obs = append(e.obs, Obs{
				Kind: ObsCompareStr, Param: p, StrValue: sv,
				CaseInsensitive: spec.CaseInsensitive, Hops: t.Hops,
				ThenBe: e.branchBehaviorOfCurrent(ctx, p),
				Loc:    e.Proj.Loc(call, ctx.fi.Name),
			})
		}
	}
	if len(ta) > 0 {
		emit(ta, b)
	}
	if len(tb) > 0 {
		emit(tb, a)
	}
}

// branchBehaviorOfCurrent approximates the behaviour of the branch guarded
// by a comparison call used as an if condition: resolved fully in walkIf;
// here we return an empty behaviour (the walkIf path supersedes this for
// conditions; standalone comparisons only feed case-sensitivity).
func (e *Engine) branchBehaviorOfCurrent(_ *fnCtx, _ string) BranchBehavior {
	return BranchBehavior{}
}

// arithUsage records an arithmetic usage of tainted parameters.
func (e *Engine) arithUsage(ctx *fnCtx, ts TaintSet, at ast.Node) {
	if e.collecting && len(ts) > 0 {
		e.recordUsage(ctx, ts, at)
	}
}

// sortedParams returns sorted parameter names of a taint set (stable
// observation order).
func sortedParams(ts TaintSet) []string {
	out := ts.params()
	sort.Strings(out)
	return out
}

// exprString renders an expression as a stable key for shared-intermediate
// matching.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.BasicLit:
		return v.Value
	case *ast.ParenExpr:
		return exprString(v.X)
	case *ast.CallExpr:
		parts := make([]string, 0, len(v.Args)+1)
		parts = append(parts, exprString(v.Fun))
		for _, a := range v.Args {
			parts = append(parts, exprString(a))
		}
		return strings.Join(parts, ",")
	case *ast.BinaryExpr:
		return exprString(v.X) + v.Op.String() + exprString(v.Y)
	case *ast.UnaryExpr:
		return v.Op.String() + exprString(v.X)
	case *ast.IndexExpr:
		return exprString(v.X) + "[" + exprString(v.Index) + "]"
	}
	return "?"
}
