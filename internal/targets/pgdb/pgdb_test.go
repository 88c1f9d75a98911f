package pgdb

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

func TestFigure3eDependency(t *testing.T) {
	res, err := spex.InferSystem(New())
	if err != nil {
		t.Fatal(err)
	}
	// (fsync, true, =) -> commit_siblings, the paper's Figure 3(e).
	found := false
	for _, c := range res.Set.ByParam("commit_siblings") {
		if c.Kind == constraint.KindControlDep && c.Peer == "fsync" {
			found = true
		}
	}
	if !found {
		t.Error("Figure 3e control dependency (fsync -> commit_siblings) not inferred")
	}
	deps := res.Set.ByKind(constraint.KindControlDep)
	if len(deps) < 5 {
		t.Errorf("control dependencies = %d, want >= 5 (archive/autovacuum/logging groups)", len(deps))
	}
}

func TestDataStructureValidationLimitsVulnerabilities(t *testing.T) {
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
	// §5.2: the GUC tables enforce uniform range/type checking with
	// pinpointing messages, so pgdb has no crashes and silent ignorance
	// dominates its vulnerabilities (Table 5 PostgreSQL row: 35 of 49).
	if counts[inject.ReactionCrash] != 0 {
		t.Errorf("crashes = %d, want 0 (GUC validation prevents them)", counts[inject.ReactionCrash])
	}
	if counts[inject.ReactionSilentIgnorance] < 5 {
		t.Errorf("silent ignorance = %d, want >= 5 (dominant category)", counts[inject.ReactionSilentIgnorance])
	}
	if counts[inject.ReactionGood] < 10 {
		t.Errorf("good reactions = %d, want >= 10 (pinpointing GUC rejections)", counts[inject.ReactionGood])
	}
	vulns := len(rep.Vulnerabilities())
	if vulns >= counts[inject.ReactionGood]+counts[inject.ReactionTolerated] {
		t.Errorf("vulnerabilities (%d) should not dominate for pgdb", vulns)
	}
}
