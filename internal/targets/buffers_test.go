package targets_test

import (
	"context"
	"runtime"
	"testing"

	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/inject"
	"spex/internal/sim"
	"spex/internal/targets"
)

// TestBootsAllocateNoBuffers: allocBuffer models a buffer no target
// reads, so a boot allocates nothing near its 1 MiB cap, on the defaults
// and with a gigabyte-scale size that reaches the cap.
func TestBootsAllocateNoBuffers(t *testing.T) {
	const boots = 20
	const perBoot = 64 << 10
	cases := []struct {
		system string
		values map[string]string
	}{
		{"httpd", nil},
		{"httpd", map[string]string{"MaxMemFree": "1073741824"}},
		{"mydb", nil},
		{"proxyd", nil},
		{"proxyd", map[string]string{"cache_mem": "1073741824"}},
		{"Storage-A", nil},
		{"Storage-A", map[string]string{"pcs.size": "1073741824"}},
	}
	for _, tc := range cases {
		sys := targets.ByName(tc.system)
		cfg, err := conffile.Parse(sys.DefaultConfig(), sys.Syntax())
		if err != nil {
			t.Fatal(err)
		}
		for p, v := range tc.values {
			cfg.Set(p, v)
		}
		boot := func() {
			env := sim.NewEnv()
			sys.SetupEnv(env)
			out := sim.MonitorStartContext(context.Background(), sys, env, cfg)
			if out.Kind != sim.StartOK {
				t.Fatalf("%s %v: boot outcome = %s\nlog:\n%s", tc.system, tc.values, out.Kind, env.Log.Dump())
			}
			out.Instance.Stop()
		}
		boot()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < boots; i++ {
			boot()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / boots
		t.Logf("%s %v: %d B per boot", tc.system, tc.values, per)
		if per > perBoot {
			t.Errorf("%s %v: %d B allocated per boot, want at most %d", tc.system, tc.values, per, perBoot)
		}
	}
}

// TestBufferReactions pins the reactions allocBuffer produces in a
// campaign: a negative size crashes every target but Storage-A, which
// clamps it, and a gigabyte-scale size is capped and tolerated.
func TestBufferReactions(t *testing.T) {
	cases := []struct {
		system, param, value string
		want                 inject.Reaction
	}{
		{"proxyd", "cache_mem", "-4096", inject.ReactionCrash},
		{"proxyd", "maximum_object_size", "-4096", inject.ReactionCrash},
		{"mydb", "max_allowed_packet", "-4096", inject.ReactionCrash},
		{"mydb", "performance_schema_events_waits_history_size", "-4096", inject.ReactionCrash},
		{"httpd", "MaxMemFree", "-4096", inject.ReactionCrash},
		{"Storage-A", "pcs.size", "-4096", inject.ReactionTolerated},
		{"proxyd", "cache_mem", "1073741824", inject.ReactionTolerated},
		{"httpd", "MaxMemFree", "1073741824", inject.ReactionTolerated},
		{"Storage-A", "pcs.size", "1073741824", inject.ReactionTolerated},
	}
	for _, tc := range cases {
		runner := inject.NewRunner(targets.ByName(tc.system), inject.DefaultOptions())
		m := confgen.Misconf{Param: tc.param, Values: map[string]string{tc.param: tc.value}}
		tr, err := runner.Trial(context.Background(), m)
		if err != nil {
			t.Fatalf("%s %s=%s: %v", tc.system, tc.param, tc.value, err)
		}
		if got := tr.Outcome.Reaction; got != tc.want {
			t.Errorf("%s %s=%s: reaction %s, want %s\nlog:\n%s", tc.system, tc.param, tc.value, got, tc.want, tr.Outcome.LogDump)
		}
	}
}
