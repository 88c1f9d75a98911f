package storagea

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

func TestProprietaryInitiatorConstraint(t *testing.T) {
	res, err := spex.InferSystem(New())
	if err != nil {
		t.Fatal(err)
	}
	var found *constraint.Constraint
	for _, c := range res.Set.ByParam("iscsi.initiator_name") {
		if c.Kind == constraint.KindSemanticType && c.Semantic == constraint.SemInitiator {
			found = c
		}
	}
	if found == nil {
		t.Error("proprietary INITIATOR semantic type not inferred through the imported API")
	}
	// log.filesize: string transformed to a 32-bit integer (Figure 3a).
	var basic *constraint.Constraint
	for _, c := range res.Set.ByParam("log.filesize") {
		if c.Kind == constraint.KindBasicType {
			basic = c
		}
	}
	if basic == nil || basic.Basic != constraint.BasicInt32 {
		t.Errorf("log.filesize basic type = %v, want int32 (first cast)", basic)
	}
}

func TestUnitZooAndDeps(t *testing.T) {
	res, err := spex.InferSystem(New())
	if err != nil {
		t.Fatal(err)
	}
	audit := designcheck.Run(res)
	// Storage-A mixes B/KB/MB/GB sizes and us/ms/s/m/h times (Table 7).
	if len(audit.SizeUnits) < 4 {
		t.Errorf("size units seen = %v, want >= 4 distinct", audit.SizeUnits)
	}
	if len(audit.TimeUnits) < 4 {
		t.Errorf("time units seen = %v, want >= 4 distinct", audit.TimeUnits)
	}
	if audit.UnsafeTransform < 10 {
		t.Errorf("unsafe transform params = %d, want >= 10 (legacy atoi)", audit.UnsafeTransform)
	}
	deps := res.Set.ByKind(constraint.KindControlDep)
	if len(deps) < 6 {
		t.Errorf("control dependencies = %d, want >= 6 (protocol groups)", len(deps))
	}
}

func TestCampaignShapeNoCrashes(t *testing.T) {
	res, err := spex.InferSystem(New())
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := conffile.Parse(New().DefaultConfig(), conffile.SyntaxEquals)
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
	// Storage-A's Table 5 row: zero crashes, zero early terminations;
	// silent violation and silent ignorance dominate.
	if counts[inject.ReactionCrash] != 0 {
		t.Errorf("crashes = %d, want 0 (the appliance never dies on bad config)", counts[inject.ReactionCrash])
	}
	if counts[inject.ReactionEarlyTerm] != 0 {
		t.Errorf("early terminations = %d, want 0", counts[inject.ReactionEarlyTerm])
	}
	if counts[inject.ReactionSilentViolation] < 5 {
		t.Errorf("silent violations = %d, want >= 5", counts[inject.ReactionSilentViolation])
	}
	if counts[inject.ReactionSilentIgnorance] < 5 {
		t.Errorf("silent ignorance = %d, want >= 5 (dominant in the paper's row)", counts[inject.ReactionSilentIgnorance])
	}
	if counts[inject.ReactionFuncFailure] == 0 {
		t.Error("no functional failures (expected: uppercase initiator, disabled rotation)")
	}
}
