package inject

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/engine"
	"spex/internal/spex"
	"spex/internal/targets"
)

// bigTemplateSystem is fakeSystem with 1,000 more directives in its
// template.
type bigTemplateSystem struct{ fakeSystem }

func (s *bigTemplateSystem) DefaultConfig() string {
	var b strings.Builder
	b.WriteString(s.fakeSystem.DefaultConfig())
	for i := range 1000 {
		fmt.Fprintf(&b, "extra_%d = %d\n", i, i)
	}
	return b.String()
}

// TestTrialAllocsIndependentOfTemplateSize: a Runner parses its
// template once, and a trial clones the parsed lines and index whole,
// so what a trial allocates does not grow with the template's
// directives. Parsing the template in every trial allocated more than
// two per directive.
func TestTrialAllocsIndependentOfTemplateSize(t *testing.T) {
	runner := NewRunner(&bigTemplateSystem{}, DefaultOptions())
	m := mk("p", "good", nil)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := runner.Trial(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("a trial on a 1,002-directive template makes %.0f allocations, want at most 100", allocs)
	}
}

// TestSharedRunnerMatchesFreshRunners runs every target's campaign
// through one Runner per system on a 4-wide pool. Each outcome must
// equal a fresh Runner's for the same misconfiguration, and the shared
// template must still render the target's default configuration, so no
// trial wrote to it.
func TestSharedRunnerMatchesFreshRunners(t *testing.T) {
	ctx := context.Background()
	systems := targets.All()
	rs, err := spex.InferAll(ctx, systems, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	for i, sys := range systems {
		tmpl, err := conffile.Parse(sys.DefaultConfig(), sys.Syntax())
		if err != nil {
			t.Fatal(err)
		}
		ms := confgen.NewRegistry().Generate(rs[i].Set, tmpl)
		shared := NewRunner(sys, opts)
		results, err := engine.Run(ctx, len(ms), 4, func(ctx context.Context, j int) (Outcome, error) {
			return shared.Test(ctx, ms[j])
		})
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range results {
			want, wantErr := NewRunner(sys, opts).Test(ctx, ms[j])
			if !reflect.DeepEqual(r.Value, want) || fmt.Sprint(r.Err) != fmt.Sprint(wantErr) {
				t.Errorf("%s %s: the shared runner's outcome differs from a fresh one's:\nshared: %+v (err %v)\nfresh : %+v (err %v)",
					sys.Name(), ms[j].ID, r.Value, r.Err, want, wantErr)
			}
		}
		if got := shared.tmpl.String(); got != sys.DefaultConfig() {
			t.Errorf("%s: after %d trials the shared template renders\n%s\nwant\n%s", sys.Name(), len(ms), got, sys.DefaultConfig())
		}
	}
}
