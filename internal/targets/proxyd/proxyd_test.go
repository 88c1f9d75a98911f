package proxyd

import (
	"context"
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

func TestComparisonMappingAndOverruling(t *testing.T) {
	res, err := spex.InferSystem(New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Convention != "comparison" {
		t.Errorf("convention = %q, want comparison", res.Convention)
	}
	if res.Params != 39 {
		t.Errorf("mapped %d params, want 39", res.Params)
	}
	// All boolean directives share Squid's on-or-silently-off parsing:
	// silent overruling must be flagged for them (Figure 6c; 73 params
	// in the paper's Squid row).
	audit := designcheck.Run(res)
	if audit.SilentOverruling < 15 {
		t.Errorf("silent-overruling params = %d, want >= 15 (all booleans)", audit.SilentOverruling)
	}
	// Squid parses numbers with unsafe atoi (115 params in the paper).
	if audit.UnsafeTransform < 10 {
		t.Errorf("unsafe-transform params = %d, want >= 10", audit.UnsafeTransform)
	}
	// Squid is the case-sensitive-dominant system (Table 6).
	if audit.CaseSensitive <= audit.CaseInsensitive {
		t.Errorf("case split sensitive=%d insensitive=%d, want sensitive-dominant",
			audit.CaseSensitive, audit.CaseInsensitive)
	}
}

func TestValueRelationshipInverted(t *testing.T) {
	res, err := spex.InferSystem(New())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Set.ByKind(constraint.KindValueRel) {
		if (c.Param == "cache_swap_low" && c.Peer == "cache_swap_high") ||
			(c.Param == "cache_swap_high" && c.Peer == "cache_swap_low") {
			found = true
		}
	}
	if !found {
		t.Error("swap watermark value relationship not inferred")
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
	t.Logf("campaign reactions: %v (total %d, locations %d)", counts, len(rep.Outcomes), rep.UniqueLocations())
	if counts[inject.ReactionSilentViolation] < 15 {
		t.Errorf("silent violations = %d, want >= 15 (Squid has the most in Table 5)",
			counts[inject.ReactionSilentViolation])
	}
	if counts[inject.ReactionCrash] == 0 {
		t.Error("no crashes exposed (cache_dir, workers, negative sizes)")
	}
	if counts[inject.ReactionSilentViolation] <= counts[inject.ReactionCrash] {
		t.Error("silent violations should dominate crashes (Table 5 Squid row)")
	}
}
