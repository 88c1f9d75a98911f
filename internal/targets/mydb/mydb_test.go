package mydb

import (
	"context"
	"testing"

	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/inject"
	"spex/internal/sim"
	"spex/internal/spex"
)

func infer(t *testing.T) *spex.Result {
	t.Helper()
	res, err := spex.InferSystem(New())
	if err != nil {
		t.Fatalf("InferSystem: %v", err)
	}
	return res
}

func TestDefaultConfigBoots(t *testing.T) {
	s := New()
	env := sim.NewEnv()
	s.SetupEnv(env)
	cfg, err := conffile.Parse(s.DefaultConfig(), s.Syntax())
	if err != nil {
		t.Fatalf("parse default config: %v", err)
	}
	inst, err := s.Start(env, cfg)
	if err != nil {
		t.Fatalf("default config failed to boot: %v\nlog:\n%s", err, env.Log.Dump())
	}
	defer inst.Stop()
	for _, ft := range s.Tests() {
		if err := sim.RunTest(ft, env, inst); err != nil {
			t.Errorf("functional test %s failed on defaults: %v", ft.Name, err)
		}
	}
}

func TestInferredConstraintCoverage(t *testing.T) {
	res := infer(t)
	if res.Params != 38 {
		t.Errorf("mapped %d params, want 38", res.Params)
	}
	counts := res.Set.CountByKind()
	if counts[constraint.KindBasicType] != 38 {
		t.Errorf("basic-type constraints = %d, want 38 (one per parameter)", counts[constraint.KindBasicType])
	}
	if counts[constraint.KindRange] < 10 {
		t.Errorf("range constraints = %d, want >= 10", counts[constraint.KindRange])
	}
	if counts[constraint.KindControlDep] < 3 {
		t.Errorf("control dependencies = %d, want >= 3", counts[constraint.KindControlDep])
	}
	if counts[constraint.KindValueRel] < 1 {
		t.Errorf("value relationships = %d, want >= 1", counts[constraint.KindValueRel])
	}
}

func TestInferenceAccuracy(t *testing.T) {
	res := infer(t)
	acc := spex.Score(res.Set, New().GroundTruth())
	for kind, a := range acc {
		ratio := a.Ratio()
		if ratio >= 0 && ratio < 0.80 {
			t.Errorf("%s accuracy = %.2f (%d/%d), want >= 0.80", kind, ratio, a.Correct, a.Total)
		}
	}
}

func TestCampaignShape(t *testing.T) {
	res := infer(t)
	tmpl, err := conffile.Parse(New().DefaultConfig(), conffile.SyntaxEquals)
	if err != nil {
		t.Fatal(err)
	}
	ms := confgen.NewRegistry().Generate(res.Set, tmpl)
	if len(ms) < 40 {
		t.Fatalf("generated %d misconfigurations, want >= 40", len(ms))
	}
	rep, err := inject.RunContext(context.Background(), New(), ms, inject.DefaultOptions())
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	counts := rep.CountByReaction()
	t.Logf("campaign reactions: %v (total %d, unique locations %d)",
		counts, len(rep.Outcomes), rep.UniqueLocations())

	if counts[inject.ReactionCrash] == 0 {
		t.Error("no crash vulnerabilities exposed (expected: stopword file, negative sizes, listener threads)")
	}
	if counts[inject.ReactionSilentViolation] == 0 {
		t.Error("no silent violations exposed (expected: clamped ranges, overruled enums)")
	}
	if counts[inject.ReactionSilentIgnorance] == 0 {
		t.Error("no silent ignorance exposed (expected: control-dependency violations)")
	}
	if counts[inject.ReactionGood] == 0 {
		t.Error("no good reactions observed (expected: pinpointing rejections)")
	}
	// The paper's MySQL row: silent violations dominate the vulnerability
	// mix.
	if counts[inject.ReactionSilentViolation] <= counts[inject.ReactionCrash] {
		t.Errorf("silent violations (%d) should dominate crashes (%d), as in Table 5",
			counts[inject.ReactionSilentViolation], counts[inject.ReactionCrash])
	}
	if rep.UniqueLocations() == 0 {
		t.Error("no unique vulnerable code locations recorded")
	}
}
