package ftpd

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

// TestConfidenceFiltersListenPortDeps reproduces the paper's §2.2.4
// example: listen_port is used once under "if listen" and once under "if
// listen_ipv6"; each candidate dependency has confidence 0.5 and must be
// filtered at the 0.75 threshold.
func TestConfidenceFiltersListenPortDeps(t *testing.T) {
	res, err := spex.InferSystem(New())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Set.ByParam("listen_port") {
		if c.Kind == constraint.KindControlDep {
			t.Errorf("spurious dependency reported: %s (confidence %.2f)", c, c.Confidence)
		}
	}
	// The genuine dependencies must survive.
	found := false
	for _, c := range res.Set.ByParam("virtual_use_local_privs") {
		if c.Kind == constraint.KindControlDep && c.Peer == "one_process_mode" {
			found = true
		}
	}
	if !found {
		t.Error("(one_process_mode, false, =) -> virtual_use_local_privs not inferred (Figure 7e)")
	}
}

func TestYesNoEnumInsensitive(t *testing.T) {
	res, err := spex.InferSystem(New())
	if err != nil {
		t.Fatal(err)
	}
	// Every boolean flows through parseYesNo: enum {yes,no},
	// case-insensitive (VSFTP's Table 6 row is 100% insensitive).
	c := findEnum(res, "anonymous_enable")
	if c == nil {
		t.Fatal("no enum constraint for anonymous_enable")
	}
	if !c.CaseKnown || c.CaseSensitive {
		t.Errorf("anonymous_enable case: known=%v sensitive=%v, want insensitive", c.CaseKnown, c.CaseSensitive)
	}
	audit := designcheck.Run(res)
	if audit.CaseSensitive != 0 {
		t.Errorf("case-sensitive params = %d, want 0 (VSFTP row)", audit.CaseSensitive)
	}
	if audit.UnsafeTransform < 8 {
		t.Errorf("unsafe transform params = %d, want >= 8", audit.UnsafeTransform)
	}
}

func findEnum(res *spex.Result, param string) *constraint.Constraint {
	for _, c := range res.Set.ByParam(param) {
		if c.Kind == constraint.KindRange && len(c.Enum) > 0 {
			return c
		}
	}
	return nil
}

func TestCampaignCrashHeavyShape(t *testing.T) {
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
	// VSFTP has the most crashes of the open-source systems (Table 5:
	// 12) and a large silent-ignorance share (68).
	if counts[inject.ReactionCrash] < 5 {
		t.Errorf("crashes = %d, want >= 5 (die-on-bad-value parsing)", counts[inject.ReactionCrash])
	}
	if counts[inject.ReactionSilentIgnorance] < 4 {
		t.Errorf("silent ignorance = %d, want >= 4 (enable-flag dependencies)", counts[inject.ReactionSilentIgnorance])
	}
}
