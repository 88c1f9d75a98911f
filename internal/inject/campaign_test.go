package inject

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/engine"
	"spex/internal/sim"
)

// campaignMisconfs covers every classification path of the fake system.
func campaignMisconfs(n int) []confgen.Misconf {
	values := []string{"crash", "exit-silent", "exit-pinpoint", "clamped", "good", "fail-silent"}
	c := basic("p", constraint.BasicString)
	var ms []confgen.Misconf
	for i := 0; i < n; i++ {
		v := values[i%len(values)]
		ms = append(ms, confgen.Misconf{
			ID:       fmt.Sprintf("m%03d-%s", i, v),
			Param:    "p",
			Values:   map[string]string{"p": v},
			Violates: c,
		})
	}
	return ms
}

// TestParallelReportEqualsSequential runs the campaign on a one-wide
// engine pool and on wider ones, and through RunContext's hardware-sized pool:
// outcomes are reassembled in input order, so every report must equal
// the sequential one.
func TestParallelReportEqualsSequential(t *testing.T) {
	sys := &fakeSystem{tests: []sim.FuncTest{
		{Name: "quick", Weight: 1, Run: func(env *sim.Env, inst sim.Instance) error {
			return nil
		}},
		{Name: "fail-on-silent", Weight: 3, Run: func(env *sim.Env, inst sim.Instance) error {
			if v, _ := inst.Effective("p"); v == "fail-silent" {
				return fmt.Errorf("request failed")
			}
			return nil
		}},
	}}
	ms := campaignMisconfs(60)
	opts := DefaultOptions()
	runner := NewRunner(sys, opts)
	runPool := func(workers int) *Report {
		results, err := engine.Run(context.Background(), len(ms), workers, func(ctx context.Context, i int) (Outcome, error) {
			return runner.Test(ctx, ms[i])
		})
		if err != nil {
			t.Fatal(err)
		}
		return Assemble(sys.Name(), ms, results, nil)
	}

	seq := runPool(1)
	check := func(name string, par *Report) {
		t.Helper()
		if len(par.Outcomes) != len(seq.Outcomes) {
			t.Fatalf("%s: %d outcomes, want %d", name, len(par.Outcomes), len(seq.Outcomes))
		}
		for i := range seq.Outcomes {
			if !reflect.DeepEqual(par.Outcomes[i], seq.Outcomes[i]) {
				t.Fatalf("%s: outcome %d differs:\nparallel  : %+v\nsequential: %+v",
					name, i, par.Outcomes[i], seq.Outcomes[i])
			}
		}
		if par.TotalSimCost != seq.TotalSimCost {
			t.Fatalf("%s: sim cost %d, want %d", name, par.TotalSimCost, seq.TotalSimCost)
		}
	}
	for _, workers := range []int{2, 4, 8} {
		check(fmt.Sprintf("workers=%d", workers), runPool(workers))
	}
	rep, err := RunContext(context.Background(), sys, ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	check("RunContext", rep)
}

func TestRunRecordsPerOutcomeErrorsAndKeepsGoing(t *testing.T) {
	sys := &fakeSystem{}
	c := basic("p", constraint.BasicString)
	ms := []confgen.Misconf{
		{ID: "ok-1", Param: "p", Values: map[string]string{"p": "good"}, Violates: c},
		{ID: "bad-env", Param: "p", Values: map[string]string{"p": "good"}, Violates: c,
			// The duplicate occupy action fails: the port is already
			// taken by the first action's tcp+udp binds.
			Env: []confgen.EnvAction{
				{Kind: confgen.EnvOccupyPort, Port: 9999},
				{Kind: confgen.EnvOccupyPort, Port: 9999},
			}},
		{ID: "ok-2", Param: "p", Values: map[string]string{"p": "clamped"}, Violates: c},
	}
	rep, err := RunContext(context.Background(), sys, ms, DefaultOptions())
	if err != nil {
		t.Fatalf("a single bad misconfiguration aborted the campaign: %v", err)
	}
	if len(rep.Outcomes) != 3 {
		t.Fatalf("report has %d outcomes, want all 3", len(rep.Outcomes))
	}
	errs := rep.Errors()
	if len(errs) != 1 || errs[0].Misconf.ID != "bad-env" {
		t.Fatalf("Errors() = %+v, want exactly bad-env", errs)
	}
	if rep.Outcomes[1].Err == "" {
		t.Fatal("errored outcome not recorded on the report")
	}
	counts := rep.CountByReaction()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 2 {
		t.Fatalf("reaction tallies count %d outcomes, want 2 (errored excluded)", total)
	}
}

// TestRunContextCancellationReturnsPartialReport cancels the campaign
// from the fake system's boot hook: the first misconfiguration runs to
// completion, and every later boot waits for its functional test,
// cancels the run, and hangs until the test ends. RunContext must
// return the partial report with both kinds of rows.
func TestRunContextCancellationReturnsPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tested := make(chan struct{})
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	sys := &fakeSystem{
		tests: []sim.FuncTest{{Name: "quick", Weight: 1, Run: func(*sim.Env, sim.Instance) error {
			close(tested) // only the first misconfiguration boots far enough
			return nil
		}}},
		boot: func(value string) {
			if value == "first" {
				return
			}
			<-tested
			cancel()
			<-release
		},
	}
	ms := append([]confgen.Misconf{mk("p", "first", nil)}, campaignMisconfs(39)...)
	rep, err := RunContext(ctx, sys, ms, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rep.Outcomes) != len(ms) {
		t.Fatalf("partial report has %d outcomes, want %d rows", len(rep.Outcomes), len(ms))
	}
	var done, cancelled int
	for _, o := range rep.Outcomes {
		if o.Err == "" {
			done++
		} else {
			cancelled++
		}
	}
	if done == 0 || cancelled == 0 {
		t.Fatalf("done=%d cancelled=%d, want a genuine partial run", done, cancelled)
	}
}

// Satellite: log dumps are retained only for vulnerability outcomes, so
// persisted snapshots stay bounded.
func TestLogDumpRetainedOnlyForVulnerabilities(t *testing.T) {
	sys := &fakeSystem{}
	ms := []confgen.Misconf{
		mk("p", "exit-silent", nil),   // early termination: vulnerability
		mk("p", "benign", nil),        // tolerated
		mk("p", "exit-pinpoint", nil), // good reaction
	}
	rep, err := RunContext(context.Background(), sys, ms, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes[0].LogDump == "" {
		t.Error("vulnerability outcome lost its log dump")
	}
	if rep.Outcomes[1].LogDump != "" || rep.Outcomes[2].LogDump != "" {
		t.Error("non-vulnerability outcomes kept their log dumps")
	}
}
