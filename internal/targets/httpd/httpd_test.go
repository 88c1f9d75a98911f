package httpd

import (
	"context"
	"strings"
	"testing"

	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/designcheck"
	"spex/internal/inject"
	"spex/internal/sim"
	"spex/internal/spex"
)

func TestDefaultConfigBoots(t *testing.T) {
	s := New()
	env := sim.NewEnv()
	s.SetupEnv(env)
	cfg, err := conffile.Parse(s.DefaultConfig(), s.Syntax())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Start(env, cfg)
	if err != nil {
		t.Fatalf("default config failed to boot: %v\nlog:\n%s", err, env.Log.Dump())
	}
	defer inst.Stop()
	for _, ft := range s.Tests() {
		if err := sim.RunTest(ft, env, inst); err != nil {
			t.Errorf("test %s failed on defaults: %v", ft.Name, err)
		}
	}
}

func TestHandlerMappingAndUnits(t *testing.T) {
	res, err := spex.InferSystem(New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Params != 23 {
		t.Errorf("mapped %d params, want 23", res.Params)
	}
	// MaxMemFree: KB unit through the *1024 multiplier (Figure 6b).
	var mmf *constraint.Constraint
	for _, c := range res.Set.ByParam("MaxMemFree") {
		if c.Kind == constraint.KindSemanticType && c.Semantic == constraint.SemSize {
			mmf = c
		}
	}
	if mmf == nil || mmf.Unit != constraint.UnitKB {
		t.Errorf("MaxMemFree unit constraint = %v, want SIZE in KB", mmf)
	}
	audit := designcheck.Run(res)
	if audit.UnsafeTransform < 8 {
		t.Errorf("unsafe transform params = %d, want >= 8 (handler atoi)", audit.UnsafeTransform)
	}
	if audit.SilentOverruling < 1 {
		t.Error("HostnameLookups silent overruling not detected")
	}
}

func TestThreadLimitMisleadingAbort(t *testing.T) {
	// The Figure 7(b) scenario: ThreadLimit = 100000 aborts with the
	// scoreboard message and never names the parameter.
	s := New()
	env := sim.NewEnv()
	s.SetupEnv(env)
	cfg, err := conffile.Parse(s.DefaultConfig(), s.Syntax())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Set("ThreadLimit", "100000")
	_, err = s.Start(env, cfg)
	if err == nil {
		t.Fatal("oversized ThreadLimit should abort startup")
	}
	if !env.Log.Contains("Unable to create access scoreboard") {
		t.Errorf("expected the misleading scoreboard message, got:\n%s", env.Log.Dump())
	}
	if env.Log.Pinpoints("ThreadLimit", "100000", 0) {
		t.Error("the abort message should NOT pinpoint ThreadLimit (that is the vulnerability)")
	}
}

func TestCampaignShape(t *testing.T) {
	res, err := spex.InferSystem(New())
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := conffile.Parse(New().DefaultConfig(), conffile.SyntaxSpace)
	if err != nil {
		t.Fatal(err)
	}
	ms := confgen.NewRegistry().Generate(res.Set, tmpl)
	rep, err := inject.RunContext(context.Background(), New(), ms, inject.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	counts := rep.CountByReaction()
	t.Logf("campaign reactions: %v (total %d)", counts, len(rep.Outcomes))
	for _, want := range []inject.Reaction{
		inject.ReactionCrash, inject.ReactionEarlyTerm, inject.ReactionSilentViolation,
	} {
		if counts[want] == 0 {
			t.Errorf("no %s outcomes exposed", want)
		}
	}
	// Confirm an error report renders for some vulnerability.
	vulns := rep.Vulnerabilities()
	if len(vulns) == 0 {
		t.Fatal("no vulnerabilities")
	}
	rpt := inject.ErrorReport(vulns[0])
	if !strings.Contains(rpt, "constraint") || !strings.Contains(rpt, "reaction") {
		t.Errorf("malformed error report:\n%s", rpt)
	}
}
