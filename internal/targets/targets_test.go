package targets_test

import (
	"context"
	"strings"
	"testing"

	"spex/internal/conffile"
	"spex/internal/sim"
	"spex/internal/targets"
)

// scenario is one paper case study: inject values, expect a reaction.
type scenario struct {
	name   string
	system string
	values map[string]string
	expect sim.StartKind // expected boot outcome
	// failTest, when set, expects the named functional test to fail
	// after a successful boot.
	failTest string
	// effective, when set, expects the given post-boot effective values
	// (silent violation checks).
	effective map[string]string
	// logHas, when set, expects the log to contain the substring.
	logHas string
}

func run(t *testing.T, sc scenario) {
	t.Helper()
	sys := targets.ByName(sc.system)
	if sys == nil {
		t.Fatalf("unknown system %q", sc.system)
	}
	env := sim.NewEnv()
	sys.SetupEnv(env)
	cfg, err := conffile.Parse(sys.DefaultConfig(), sys.Syntax())
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range sc.values {
		cfg.Set(p, v)
	}
	out := sim.MonitorStartContext(context.Background(), sys, env, cfg)
	if out.Kind != sc.expect {
		t.Fatalf("boot outcome = %s, want %s\nlog:\n%s", out.Kind, sc.expect, env.Log.Dump())
	}
	if sc.logHas != "" && !env.Log.Contains(sc.logHas) {
		t.Errorf("log missing %q:\n%s", sc.logHas, env.Log.Dump())
	}
	if out.Kind != sim.StartOK {
		return
	}
	inst := out.Instance
	defer inst.Stop()
	if sc.failTest != "" {
		failed := ""
		for _, ft := range sys.Tests() {
			if err := sim.RunTest(ft, env, inst); err != nil {
				failed = ft.Name
				break
			}
		}
		if failed != sc.failTest {
			t.Errorf("failed test = %q, want %q", failed, sc.failTest)
		}
	}
	for p, want := range sc.effective {
		got, ok := inst.Effective(p)
		if !ok || got != want {
			t.Errorf("effective %s = %q (%v), want %q", p, got, ok, want)
		}
	}
}

// TestPaperScenarios replays the paper's motivating examples and the
// Figure 5/7 case studies against the live targets.
func TestPaperScenarios(t *testing.T) {
	scenarios := []scenario{
		{
			// Figure 1: capital letters in the initiator name make the
			// share unrecognizable, silently.
			name: "figure1-initiator-uppercase", system: "Storage-A",
			values:   map[string]string{"iscsi.initiator_name": "iqn.2013-01.com.example:TARGET"},
			expect:   sim.StartOK,
			failTest: "iscsi-discover",
		},
		{
			// Figure 2: listener-threads past the hard-coded 16 crashes.
			name: "figure2-listener-threads", system: "ldapd",
			values: map[string]string{"listener-threads": "32"},
			expect: sim.StartCrash,
		},
		{
			// Figure 5(b): a directory where a file is expected crashes
			// the full-text engine.
			name: "figure5b-stopword-dir", system: "mydb",
			values: map[string]string{"ft_stopword_file": "/var/lib/mydb"},
			expect: sim.StartCrash,
		},
		{
			// Figure 5(c): ICP port out of range aborts with the
			// misleading message.
			name: "figure5c-icp-port", system: "proxyd",
			values: map[string]string{"icp_port": "70000"},
			expect: sim.StartExit,
			logHas: "Cannot open ICP Port",
		},
		{
			// Figure 5(d): out-of-range index_intlen silently clamped.
			name: "figure5d-index-intlen", system: "ldapd",
			values:    map[string]string{"index_intlen": "300"},
			expect:    sim.StartOK,
			effective: map[string]string{"index_intlen": "255"},
		},
		{
			// Figure 5(f): inverted word-length window breaks search
			// with no message.
			name: "figure5f-wordlen-inverted", system: "mydb",
			values:   map[string]string{"ft_min_word_len": "25", "ft_max_word_len": "10"},
			expect:   sim.StartOK,
			failTest: "ft-search",
		},
		{
			// Figure 6(c): Squid treats "yes" as off, silently.
			name: "figure6c-query-icmp-yes", system: "proxyd",
			values:    map[string]string{"query_icmp": "yes"},
			expect:    sim.StartOK,
			effective: map[string]string{"query_icmp": "off"},
		},
		{
			// Figure 7(b): oversized ThreadLimit aborts with the
			// scoreboard message, never naming the parameter.
			name: "figure7b-threadlimit", system: "httpd",
			values: map[string]string{"ThreadLimit": "100000"},
			expect: sim.StartExit,
			logHas: "Unable to create access scoreboard",
		},
		{
			// Figure 7(c): tiny sockbuf makes every request fail with
			// only connection-level logs.
			name: "figure7c-sockbuf", system: "ldapd",
			values:   map[string]string{"sockbuf_max_incoming": "1"},
			expect:   sim.StartOK,
			failTest: "search-entry",
		},
		{
			// Figure 7(d): pcs.size with a unit suffix parses to 0 via
			// the legacy atoi.
			name: "figure7d-pcs-size-suffix", system: "Storage-A",
			values:    map[string]string{"pcs.size": "512MB"},
			expect:    sim.StartOK,
			effective: map[string]string{"pcs.size": "0"},
		},
		{
			// VSFTP dies on a bad boolean (its dominant crash mode).
			name: "vsftp-bad-bool", system: "ftpd",
			values: map[string]string{"anonymous_enable": "maybe"},
			expect: sim.StartCrash,
		},
		{
			// MySQL enum matching is case insensitive except
			// innodb_file_format_check (Figure 6a): lowercase spelling
			// of a valid value is rejected (with a pinpointing message,
			// so this is a good reaction, but it IS the inconsistency).
			name: "figure6a-file-format-case", system: "mydb",
			values: map[string]string{"innodb_file_format_check": "antelope"},
			expect: sim.StartExit,
			logHas: "innodb_file_format_check",
		},
		{
			// ...while other mydb enums accept any casing.
			name: "mydb-insensitive-enum", system: "mydb",
			values:    map[string]string{"character_set_server": "LATIN1"},
			expect:    sim.StartOK,
			effective: map[string]string{"character_set_server": "latin1"},
		},
		{
			// pgdb's GUC tables reject out-of-range values with a
			// pinpointing message (§5.2 good practice).
			name: "pgdb-guc-range-rejection", system: "pgdb",
			values: map[string]string{"shared_buffers": "1"},
			expect: sim.StartExit,
			logHas: "shared_buffers",
		},
		{
			// Silent clamp in mydb: max_connections = 0 becomes 1.
			name: "mydb-silent-clamp", system: "mydb",
			values:    map[string]string{"max_connections": "0"},
			expect:    sim.StartOK,
			effective: map[string]string{"max_connections": "1"},
		},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) { run(t, sc) })
	}
}

// TestDefaultsBootEverywhere double-checks every registered target boots
// and passes its own tests on the shipped defaults.
func TestDefaultsBootEverywhere(t *testing.T) {
	for _, sys := range targets.All() {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			env := sim.NewEnv()
			sys.SetupEnv(env)
			cfg, err := conffile.Parse(sys.DefaultConfig(), sys.Syntax())
			if err != nil {
				t.Fatal(err)
			}
			out := sim.MonitorStartContext(context.Background(), sys, env, cfg)
			if out.Kind != sim.StartOK {
				t.Fatalf("defaults outcome = %s\nlog:\n%s", out.Kind, env.Log.Dump())
			}
			defer out.Instance.Stop()
			for _, ft := range sys.Tests() {
				if err := sim.RunTest(ft, env, out.Instance); err != nil {
					t.Errorf("test %s: %v", ft.Name, err)
				}
			}
		})
	}
}

// TestEveryTargetDocumentsDefaults ensures every mapped parameter appears
// in the default configuration template (the injector relies on
// template defaults for dependency violations).
func TestEveryTargetDocumentsDefaults(t *testing.T) {
	for _, sys := range targets.All() {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			cfg, err := conffile.Parse(sys.DefaultConfig(), sys.Syntax())
			if err != nil {
				t.Fatal(err)
			}
			keys := cfg.Keys()
			if len(keys) < 15 {
				t.Errorf("default template has only %d directives", len(keys))
			}
			for _, k := range keys {
				if strings.TrimSpace(k) == "" {
					t.Error("empty directive key in template")
				}
			}
		})
	}
}
