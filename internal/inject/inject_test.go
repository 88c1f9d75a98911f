package inject

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/engine"
	"spex/internal/sim"
)

// fakeSystem reacts to the injected value of parameter "p" according to a
// behaviour table, letting tests drive every classification path. boot,
// if set, is called with that value at the start of every boot.
type fakeSystem struct {
	tests []sim.FuncTest
	boot  func(value string)
}

func (s *fakeSystem) Name() string                       { return "fake" }
func (s *fakeSystem) Description() string                { return "fake" }
func (s *fakeSystem) Syntax() conffile.Syntax            { return conffile.SyntaxEquals }
func (s *fakeSystem) DefaultConfig() string              { return "p = good\nq = 1\n" }
func (s *fakeSystem) Sources() map[string]string         { return nil }
func (s *fakeSystem) Annotations() string                { return "" }
func (s *fakeSystem) Manual() map[string]sim.ManualEntry { return nil }
func (s *fakeSystem) GroundTruth() *constraint.Set       { return constraint.NewSet("fake") }
func (s *fakeSystem) SetupEnv(env *sim.Env)              {}
func (s *fakeSystem) Tests() []sim.FuncTest              { return s.tests }

type fakeInstance struct{ effective map[string]string }

func (i *fakeInstance) Effective(p string) (string, bool) {
	v, ok := i.effective[p]
	return v, ok
}
func (i *fakeInstance) Stop() {}

func (s *fakeSystem) Start(env *sim.Env, cfg *conffile.File) (sim.Instance, error) {
	v, _ := cfg.Get("p")
	if s.boot != nil {
		s.boot(v)
	}
	switch v {
	case "crash":
		panic("segfault")
	case "hang":
		sim.Hang()
	case "exit-silent":
		env.Log.Fatalf("fatal internal failure")
		return nil, &sim.ExitError{Status: 1, Reason: "x"}
	case "exit-pinpoint":
		env.Log.Errorf("bad value for parameter 'p'")
		return nil, &sim.ExitError{Status: 1, Reason: "x"}
	case "clamped":
		return &fakeInstance{effective: map[string]string{"p": "good", "q": "1"}}, nil
	}
	eff := map[string]string{"p": v, "q": "1"}
	if qv, ok := cfg.Get("q"); ok {
		eff["q"] = qv
	}
	return &fakeInstance{effective: eff}, nil
}

func mk(param, value string, violates *constraint.Constraint) confgen.Misconf {
	return confgen.Misconf{
		ID: param + "#" + value, Param: param,
		Values:   map[string]string{param: value},
		Violates: violates,
	}
}

func runOneMisconf(t *testing.T, sys sim.System, m confgen.Misconf, opts Options) Outcome {
	t.Helper()
	rep, err := RunContext(context.Background(), sys, []confgen.Misconf{m}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Outcomes[0]
}

func TestClassifyCrash(t *testing.T) {
	o := runOneMisconf(t, &fakeSystem{}, mk("p", "crash", nil), DefaultOptions())
	if o.Reaction != ReactionCrash {
		t.Errorf("reaction = %s", o.Reaction)
	}
}

func TestClassifyHang(t *testing.T) {
	o := runOneMisconf(t, &fakeSystem{}, mk("p", "hang", nil), DefaultOptions())
	if o.Reaction != ReactionCrash {
		t.Errorf("reaction = %s (hang folds into crash/hang)", o.Reaction)
	}
}

// TestHangUnwindsBootLock: a hang is a signal, not a wait. A target
// that calls sim.Hang under its boot lock is classified crash/hang at
// once, the lock's deferred unlock runs, and the next boot runs.
func TestHangUnwindsBootLock(t *testing.T) {
	var bootMu sync.Mutex
	runner := NewRunner(&fakeSystem{boot: func(v string) {
		bootMu.Lock()
		defer bootMu.Unlock()
		if v == "hang-locked" {
			sim.Hang()
		}
	}}, DefaultOptions())
	for _, c := range []struct {
		value string
		want  Reaction
	}{{"hang-locked", ReactionCrash}, {"good", ReactionTolerated}} {
		o, err := runner.Test(context.Background(), mk("p", c.value, nil))
		if err != nil || o.Reaction != c.want {
			t.Errorf("p = %s: %s (err %v), want %s", c.value, o.Reaction, err, c.want)
		}
	}
}

// TestBootPastGuardIsAHarnessError: a boot that outlives sim.BootGuard
// without calling sim.Hang gets no verdict. Its outcome carries Err, so
// it is listed as a harness failure, tallied as no reaction, never
// saved, and re-executed on the next run.
func TestBootPastGuardIsAHarnessError(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	sys := &fakeSystem{boot: func(v string) {
		if v == "stuck" {
			<-release
		}
	}}
	rep, err := RunContext(context.Background(), sys, []confgen.Misconf{
		mk("p", "stuck", nil), mk("p", "crash", nil),
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if errs := rep.Errors(); len(errs) != 1 || errs[0].Misconf.ID != "p#stuck" {
		t.Fatalf("Errors() = %+v, want exactly p#stuck", errs)
	}
	counts := rep.CountByReaction()
	if len(counts) != 1 || counts[ReactionCrash] != 1 {
		t.Errorf("CountByReaction() = %v, want only the crash", counts)
	}
}

func TestClassifyEarlyTermVsGood(t *testing.T) {
	o := runOneMisconf(t, &fakeSystem{}, mk("p", "exit-silent", nil), DefaultOptions())
	if o.Reaction != ReactionEarlyTerm || o.Pinpointed {
		t.Errorf("silent exit = %s pin=%v", o.Reaction, o.Pinpointed)
	}
	o = runOneMisconf(t, &fakeSystem{}, mk("p", "exit-pinpoint", nil), DefaultOptions())
	if o.Reaction != ReactionGood || !o.Pinpointed {
		t.Errorf("pinpointed exit = %s pin=%v", o.Reaction, o.Pinpointed)
	}
}

func TestClassifyFunctionalFailure(t *testing.T) {
	sys := &fakeSystem{tests: []sim.FuncTest{{
		Name: "always-fails", Weight: 1,
		Run: func(env *sim.Env, inst sim.Instance) error {
			return fmt.Errorf("request failed")
		},
	}}}
	o := runOneMisconf(t, sys, mk("p", "weird", nil), DefaultOptions())
	if o.Reaction != ReactionFuncFailure || o.FailedTest != "always-fails" {
		t.Errorf("reaction = %s test=%s", o.Reaction, o.FailedTest)
	}
}

func TestClassifySilentViolation(t *testing.T) {
	o := runOneMisconf(t, &fakeSystem{}, mk("p", "clamped", nil), DefaultOptions())
	if o.Reaction != ReactionSilentViolation {
		t.Errorf("reaction = %s, want silent violation (effective differs)", o.Reaction)
	}
}

func TestClassifySilentIgnorance(t *testing.T) {
	dep := &constraint.Constraint{Kind: constraint.KindControlDep,
		Param: "q", Peer: "p", Cond: constraint.OpEQ, Value: "good"}
	m := confgen.Misconf{
		ID: "dep", Param: "q",
		Values:   map[string]string{"p": "other", "q": "1"},
		Violates: dep,
	}
	o := runOneMisconf(t, &fakeSystem{}, m, DefaultOptions())
	if o.Reaction != ReactionSilentIgnorance {
		t.Errorf("reaction = %s, want silent ignorance", o.Reaction)
	}
}

func TestClassifyTolerated(t *testing.T) {
	o := runOneMisconf(t, &fakeSystem{}, mk("p", "benign", nil), DefaultOptions())
	if o.Reaction != ReactionTolerated {
		t.Errorf("reaction = %s, want tolerated", o.Reaction)
	}
}

func TestShortestTestFirstAndStopOnFailure(t *testing.T) {
	var order []string
	mkTest := func(name string, weight int, fail bool) sim.FuncTest {
		return sim.FuncTest{Name: name, Weight: weight,
			Run: func(env *sim.Env, inst sim.Instance) error {
				order = append(order, name)
				if fail {
					return fmt.Errorf("failed")
				}
				return nil
			}}
	}
	sys := &fakeSystem{tests: []sim.FuncTest{
		mkTest("slow", 10, false),
		mkTest("quick-fail", 1, true),
		mkTest("medium", 5, false),
	}}
	o := runOneMisconf(t, sys, mk("p", "weird", nil), DefaultOptions())
	if len(order) != 1 || order[0] != "quick-fail" {
		t.Errorf("execution order = %v, want shortest first then stop", order)
	}
	if o.SimCost != 1+1 {
		t.Errorf("sim cost = %d, want boot(1)+quick(1)", o.SimCost)
	}

	// Without optimizations: every test runs, in declaration order.
	order = nil
	opts := DefaultOptions()
	opts.SortTests = false
	opts.StopOnFirstFailure = false
	o = runOneMisconf(t, sys, mk("p", "weird", nil), opts)
	if len(order) != 3 || order[0] != "slow" {
		t.Errorf("unoptimized order = %v", order)
	}
	if o.SimCost != 1+10+1+5 {
		t.Errorf("unoptimized cost = %d", o.SimCost)
	}
}

func TestUniqueLocations(t *testing.T) {
	locA := constraint.SourceLoc{File: "a.go", Line: 10}
	locB := constraint.SourceLoc{File: "a.go", Line: 20}
	ca := &constraint.Constraint{Kind: constraint.KindBasicType, Param: "p", Loc: locA}
	cb := &constraint.Constraint{Kind: constraint.KindBasicType, Param: "p", Loc: locB}
	rep, err := RunContext(context.Background(), &fakeSystem{}, []confgen.Misconf{
		mk("p", "crash", ca), mk("p", "clamped", ca), mk("p", "exit-silent", cb),
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.UniqueLocations(); got != 2 {
		t.Errorf("unique locations = %d, want 2", got)
	}
	if got := len(rep.Vulnerabilities()); got != 3 {
		t.Errorf("vulnerabilities = %d, want 3", got)
	}
}

func TestEnvActionsApplied(t *testing.T) {
	m := confgen.Misconf{
		ID: "env", Param: "p", Values: map[string]string{"p": "benign"},
		Env: []confgen.EnvAction{
			{Kind: confgen.EnvOccupyPort, Port: 9999},
			{Kind: confgen.EnvMakeDir, Path: "/injected/dir"},
			{Kind: confgen.EnvMakeUnreadable, Path: "/injected/secret"},
		},
	}
	// A system start hook that checks the environment.
	checked := false
	sys := &fakeSystem{tests: []sim.FuncTest{{
		Name: "env-check", Weight: 1,
		Run: func(env *sim.Env, inst sim.Instance) error {
			checked = true
			if !env.Net.Occupied("tcp", 9999) {
				return fmt.Errorf("port not occupied")
			}
			if !env.FS.IsDir("/injected/dir") {
				return fmt.Errorf("dir not created")
			}
			if _, err := env.FS.ReadFile("/injected/secret"); err == nil {
				return fmt.Errorf("file should be unreadable")
			}
			return nil
		},
	}}}
	rep, err := RunContext(context.Background(), sys, []confgen.Misconf{m}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("test did not run")
	}
	if rep.Outcomes[0].FailedTest != "" {
		t.Errorf("environment not set up: %s", rep.Outcomes[0].LogDump)
	}
}

func TestNormalizeNumeric(t *testing.T) {
	cases := [][2]string{
		{"0064", "64"}, {"-007", "-7"}, {"0", "000"}, {" 5 ", "5"},
	}
	for _, c := range cases {
		if !sameValue(c[0], c[1]) {
			t.Errorf("sameValue(%q, %q) = false", c[0], c[1])
		}
	}
	if sameValue("on", "off") || sameValue("64", "65") {
		t.Error("distinct values compared equal")
	}
}

// Property: normalize is idempotent.
func TestPropertyNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool { return normalize(normalize(s)) == normalize(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestErrorReportFormat(t *testing.T) {
	c := &constraint.Constraint{Kind: constraint.KindRange, Param: "p",
		Intervals: []constraint.Interval{{HasMin: true, Min: 1, Valid: true}},
		Loc:       constraint.SourceLoc{File: "x.go", Line: 3, Func: "f"}}
	o := Outcome{
		Misconf:  mk("p", "0", c),
		Reaction: ReactionSilentViolation,
		Loc:      c.Loc,
		LogDump:  "WARN: something\n",
	}
	rpt := ErrorReport(o)
	for _, want := range []string{"constraint", "injected", "silent violation", "x.go:3", "WARN: something"} {
		if !strings.Contains(rpt, want) {
			t.Errorf("report missing %q:\n%s", want, rpt)
		}
	}
}

func TestReactionVulnerability(t *testing.T) {
	vuln := []Reaction{ReactionCrash, ReactionEarlyTerm, ReactionFuncFailure,
		ReactionSilentViolation, ReactionSilentIgnorance}
	for _, r := range vuln {
		if !r.Vulnerability() {
			t.Errorf("%s must be a vulnerability", r)
		}
	}
	for _, r := range []Reaction{ReactionGood, ReactionTolerated} {
		if r.Vulnerability() {
			t.Errorf("%s must not be a vulnerability", r)
		}
	}
}

// TestAssembleYieldedOutcomes: a task abandoned with ErrYielded (a
// work-stealing gate, internal/coord) is classified as yielded work —
// tallied on Report.Yielded, excluded from harness failures, never a
// reaction.
func TestAssembleYieldedOutcomes(t *testing.T) {
	c := &constraint.Constraint{Kind: constraint.KindBasicType, Param: "p"}
	ms := []confgen.Misconf{mk("p", "good", c), mk("p", "crash", c)}
	results := []engine.Result[Outcome]{
		{Index: 0, Err: fmt.Errorf("gated: %w", ErrYielded)},
		{Index: 1, Value: Outcome{Misconf: ms[1], Reaction: ReactionCrash}},
	}
	rep := Assemble("fake", ms, results, nil)
	if rep.Yielded != 1 {
		t.Errorf("Report.Yielded = %d, want 1", rep.Yielded)
	}
	if !rep.Outcomes[0].Yielded || rep.Outcomes[0].Err == "" {
		t.Errorf("yielded outcome not marked: %+v", rep.Outcomes[0])
	}
	if errs := rep.Errors(); len(errs) != 0 {
		t.Errorf("yielded outcome counted as a harness failure: %v", errs)
	}
	if got := rep.CountByReaction()[ReactionCrash]; got != 1 {
		t.Errorf("crash tally = %d, want 1 (the executed outcome)", got)
	}
}
