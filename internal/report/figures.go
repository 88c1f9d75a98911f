package report

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/inject"
	"spex/internal/sim"
	"spex/internal/targets"
)

// scenario injects specific values into one target, reproducing a
// figure's case study. Dep names the control dependency the values
// violate; without it the harness calls a retained setting tolerated.
type scenario struct {
	Caption string
	System  string
	Values  map[string]string
	Dep     *constraint.Constraint
}

// dep is a control dependency: param takes effect only when peer is value.
func dep(param, peer, value string) *constraint.Constraint {
	return &constraint.Constraint{Kind: constraint.KindControlDep, Param: param, Peer: peer, Cond: constraint.OpEQ, Value: value}
}

// params returns the injected parameters in name order, so the figure
// and the misconfiguration it tests are deterministic across runs.
func (sc scenario) params() []string {
	ps := make([]string, 0, len(sc.Values))
	for p := range sc.Values {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	return ps
}

// trial tests the scenario through the campaign harness: the verdict
// and the evidence behind it.
func (sc scenario) trial(ctx context.Context) (inject.Trial, error) {
	sys := targets.ByName(sc.System)
	if sys == nil {
		return inject.Trial{}, fmt.Errorf("unknown system %q", sc.System)
	}
	m := confgen.Misconf{ID: sc.Caption, Param: sc.params()[0], Values: sc.Values, Violates: sc.Dep}
	if sc.Dep != nil {
		m.Param = sc.Dep.Param
	}
	return inject.NewRunner(sys, inject.DefaultOptions()).Trial(ctx, m)
}

func runScenario(ctx context.Context, sc scenario) (string, error) {
	t, err := sc.trial(ctx)
	if err != nil {
		return "", err
	}
	var kv []string
	for _, p := range sc.params() {
		kv = append(kv, fmt.Sprintf("%s = %s", p, sc.Values[p]))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "--- %s ---\n", sc.Caption)
	fmt.Fprintf(&b, "inject : %s\n", strings.Join(kv, ", "))
	switch o, st := t.Outcome, t.Start; {
	case st.Kind == sim.StartCrash:
		fmt.Fprintf(&b, "result : CRASH (%v)\n", st.PanicVal)
	case st.Kind == sim.StartHang:
		b.WriteString("result : HANG (startup never completed)\n")
	case st.Kind == sim.StartExit:
		fmt.Fprintf(&b, "result : terminated, status %d\n", st.Exit.Status)
	case o.FailedTest != "":
		fmt.Fprintf(&b, "result : functional failure in test %s (%v)\n", o.FailedTest, t.TestErr)
	case t.Changed != "":
		fmt.Fprintf(&b, "result : silently changed: %s -> %q\n", t.Changed, t.Effective)
	case st.Kind == sim.StartOK:
		b.WriteString("result : server runs; setting silently retained/ignored\n")
	}
	if dump := t.Outcome.LogDump; dump != "" {
		b.WriteString("logs   :\n")
		for _, line := range strings.Split(strings.TrimRight(dump, "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	} else {
		b.WriteString("logs   : (none)\n")
	}
	return b.String(), nil
}

// runScenarios renders a figure of several case studies under its title.
func runScenarios(ctx context.Context, title string, scs []scenario) (string, error) {
	var b strings.Builder
	b.WriteString(title)
	for _, sc := range scs {
		s, err := runScenario(ctx, sc)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	return b.String(), nil
}

// The figures' case studies; TestFigureVerdicts pins each one's verdict.
var (
	figure1Case = scenario{
		Caption: "Figure 1: Storage-A initiator name with capital letters",
		System:  "Storage-A",
		Values:  map[string]string{"iscsi.initiator_name": "iqn.2013-01.com.example:TARGET"},
	}
	figure2Case = scenario{
		Caption: "Figure 2: ldapd listener-threads = 32 (hard-coded max is 16)",
		System:  "ldapd",
		Values:  map[string]string{"listener-threads": "32"},
	}
	figure5Cases = []scenario{
		{Caption: "Figure 5(a): basic-type violation — overflowing log.filesize",
			System: "Storage-A", Values: map[string]string{"log.filesize": "9000000000"}},
		{Caption: "Figure 5(b): semantic-type violation (FILE) — stopword file is a directory",
			System: "mydb", Values: map[string]string{"ft_stopword_file": "/var/lib/mydb"}},
		{Caption: "Figure 5(c): semantic-type violation (PORT) — ICP port out of range",
			System: "proxyd", Values: map[string]string{"icp_port": "70000"}},
		{Caption: "Figure 5(d): data-range violation — index_intlen = 300",
			System: "ldapd", Values: map[string]string{"index_intlen": "300"}},
		{Caption: "Figure 5(e): control-dependency violation — fsync=off with commit_siblings set",
			System: "pgdb", Values: map[string]string{"fsync": "off", "commit_siblings": "5"},
			Dep: dep("commit_siblings", "fsync", "true")},
		{Caption: "Figure 5(f): value-relationship violation — ft_min 25 > ft_max 10",
			System: "mydb", Values: map[string]string{"ft_min_word_len": "25", "ft_max_word_len": "10"}},
	}
	figure7Cases = []scenario{
		{Caption: "Figure 7(a): crash — performance schema history size 0 then negative allocation",
			System: "mydb", Values: map[string]string{"performance_schema_events_waits_history_size": "-4096"}},
		{Caption: "Figure 7(b): early termination with misleading message — ThreadLimit = 100000",
			System: "httpd", Values: map[string]string{"ThreadLimit": "100000"}},
		{Caption: "Figure 7(c): functional failure without pinpointing — sockbuf_max_incoming 1",
			System: "ldapd", Values: map[string]string{"sockbuf_max_incoming": "1"}},
		{Caption: "Figure 7(d): silent violation — pcs.size = 512MB (unit suffix ignored)",
			System: "Storage-A", Values: map[string]string{"pcs.size": "512MB"}},
		{Caption: "Figure 7(e): silent ignorance — virtual_use_local_privs with one_process_mode",
			System: "ftpd", Values: map[string]string{"virtual_use_local_privs": "yes", "one_process_mode": "yes"},
			Dep: dep("virtual_use_local_privs", "one_process_mode", "false")},
	}
)

// Figure1 reproduces the commercial initiator-name case: uppercase letters
// make the storage share unrecognizable with no message.
func Figure1(ctx context.Context) (string, error) {
	return runScenario(ctx, figure1Case)
}

// Figure2 reproduces the OpenLDAP listener-threads crash.
func Figure2(ctx context.Context) (string, error) {
	return runScenario(ctx, figure2Case)
}

// Figure3 shows one inferred constraint per kind, matching the paper's six
// examples.
func Figure3(results []*SystemResult) string {
	byName := map[string]*SystemResult{}
	for _, r := range results {
		byName[r.Sys.Name()] = r
	}
	pick := func(system, param string, kind constraint.Kind) string {
		r := byName[system]
		if r == nil {
			return fmt.Sprintf("  (%s not analyzed)", system)
		}
		for _, c := range r.Inference.Set.ByParam(param) {
			if c.Kind == kind {
				return fmt.Sprintf("  %-9s %s   [from %s]", system+":", c, c.Loc)
			}
		}
		return fmt.Sprintf("  %s: constraint for %q not found", system, param)
	}
	var b strings.Builder
	b.WriteString("=== Figure 3: constraint-inference examples ===\n")
	b.WriteString("(a) basic type (string transformed to int32):\n")
	b.WriteString(pick("Storage-A", "log.filesize", constraint.KindBasicType) + "\n")
	b.WriteString("(b) semantic type FILE:\n")
	b.WriteString(pick("mydb", "ft_stopword_file", constraint.KindSemanticType) + "\n")
	b.WriteString("(c) semantic type PORT:\n")
	b.WriteString(pick("proxyd", "icp_port", constraint.KindSemanticType) + "\n")
	b.WriteString("(d) data range (silently clamped):\n")
	b.WriteString(pick("ldapd", "index_intlen", constraint.KindRange) + "\n")
	b.WriteString("(e) control dependency:\n")
	b.WriteString(pick("pgdb", "commit_siblings", constraint.KindControlDep) + "\n")
	b.WriteString("(f) value relationship:\n")
	b.WriteString(pick("mydb", "ft_max_word_len", constraint.KindValueRel) + "\n")
	return b.String()
}

// Figure4 shows the annotation conventions.
func Figure4() string {
	var b strings.Builder
	b.WriteString("=== Figure 4: mapping conventions and annotations ===\n")
	for _, name := range []string{"pgdb", "httpd", "proxyd", "ldapd"} {
		sys := targets.ByName(name)
		fmt.Fprintf(&b, "--- %s (%s) ---\n%s\n", name, sys.Description(), sys.Annotations())
	}
	return b.String()
}

// Figure5 reproduces the injection examples, one per generation rule.
func Figure5(ctx context.Context) (string, error) {
	return runScenarios(ctx, "=== Figure 5: misconfiguration injection examples ===\n", figure5Cases)
}

// Figure6 shows the error-prone design examples found by the audit.
func Figure6(results []*SystemResult) string {
	var b strings.Builder
	b.WriteString("=== Figure 6: error-prone configuration design examples ===\n")
	find := func(system, param, kind string) string {
		for _, r := range results {
			if r.Sys.Name() != system || r.Audit == nil {
				continue
			}
			for _, f := range r.Audit.Findings {
				if string(f.Kind) == kind && (param == "" || f.Param == param) {
					return fmt.Sprintf("  %s: %s", system, f.Message)
				}
			}
		}
		return fmt.Sprintf("  %s: finding %s/%s not present", system, kind, param)
	}
	b.WriteString("(a) case-sensitivity inconsistency:\n")
	b.WriteString(find("mydb", "innodb_file_format_check", "case-inconsistency") + "\n")
	b.WriteString("(b) unit inconsistency:\n")
	b.WriteString(find("httpd", "MaxMemFree", "unit-inconsistency") + "\n")
	b.WriteString("(c) silent overruling:\n")
	b.WriteString(find("proxyd", "", "silent-overruling") + "\n")
	b.WriteString("(d) unsafe parsing API:\n")
	b.WriteString(find("proxyd", "", "unsafe-api") + "\n")
	return b.String()
}

// Figure7 reproduces the five vulnerability-category examples.
func Figure7(ctx context.Context) (string, error) {
	return runScenarios(ctx, "=== Figure 7: vulnerability examples by category ===\n", figure7Cases)
}
