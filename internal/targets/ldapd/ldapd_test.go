package ldapd

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

func TestFigure2ListenerThreadsCrash(t *testing.T) {
	// listener-threads = 32: crash after startup with only
	// "segmentation fault" — the paper's Figure 2.
	s := New()
	env := sim.NewEnv()
	s.SetupEnv(env)
	cfg, err := conffile.Parse(s.DefaultConfig(), s.Syntax())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Set("listener-threads", "32")
	out := sim.MonitorStartContext(context.Background(), s, env, cfg)
	if out.Kind != sim.StartCrash {
		t.Fatalf("listener-threads=32 -> %s, want crash", out.Kind)
	}
}

func TestHybridMappingAndFigure3d(t *testing.T) {
	res, err := spex.InferSystem(New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Convention != "hybrid" {
		t.Errorf("convention = %q, want hybrid", res.Convention)
	}
	// Figure 3(d): index_intlen valid range [4, 255].
	found := false
	for _, c := range res.Set.ByParam("index_intlen") {
		if c.Kind != constraint.KindRange {
			continue
		}
		for _, iv := range c.ValidIntervals() {
			if iv.HasMin && iv.Min == 4 && iv.HasMax && iv.Max == 255 {
				found = true
			}
		}
	}
	if !found {
		t.Error("index_intlen [4,255] range (Figure 3d) not inferred")
	}
}

func TestAliasingLowersAccuracy(t *testing.T) {
	res, err := spex.InferSystem(New())
	if err != nil {
		t.Fatal(err)
	}
	acc := spex.Score(res.Set, New().GroundTruth())
	r := acc[constraint.KindRange]
	ratio := r.Ratio()
	if ratio < 0 {
		t.Fatal("no range constraints inferred at all")
	}
	// The shared ConfigArgs scratch aliases index_intlen and
	// tool-threads: their clamps cross-contaminate, so range accuracy
	// must drop below perfect but stay usable — the paper's OpenLDAP
	// row is 73.1%, the lowest of all systems.
	if ratio >= 0.999 {
		t.Errorf("range accuracy = %.3f; aliasing should produce wrong attributions (paper: 73%%)", ratio)
	}
	if ratio < 0.4 {
		t.Errorf("range accuracy = %.3f; too low — the corpus should remain mostly inferable", ratio)
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
	if counts[inject.ReactionFuncFailure] == 0 {
		t.Error("no functional failures (expected: sockbuf_max_incoming, Figure 7c)")
	}
	if counts[inject.ReactionSilentViolation] == 0 {
		t.Error("no silent violations (expected: index_intlen clamp)")
	}
}
