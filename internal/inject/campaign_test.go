package inject

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"spex/internal/confgen"
	"spex/internal/constraint"
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
	opts.HangDeadline = 100 * time.Millisecond

	seq, err := Run(sys, ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		opts.Workers = workers
		par, err := Run(sys, ms, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Outcomes) != len(seq.Outcomes) {
			t.Fatalf("workers=%d: %d outcomes, want %d", workers, len(par.Outcomes), len(seq.Outcomes))
		}
		for i := range seq.Outcomes {
			if !reflect.DeepEqual(par.Outcomes[i], seq.Outcomes[i]) {
				t.Fatalf("workers=%d: outcome %d differs:\nparallel  : %+v\nsequential: %+v",
					workers, i, par.Outcomes[i], seq.Outcomes[i])
			}
		}
		if par.TotalSimCost != seq.TotalSimCost {
			t.Fatalf("workers=%d: sim cost %d, want %d", workers, par.TotalSimCost, seq.TotalSimCost)
		}
	}
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
	rep, err := Run(sys, ms, DefaultOptions())
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

func TestRunContextCancellationReturnsPartialReport(t *testing.T) {
	sys := &fakeSystem{}
	ms := campaignMisconfs(40)
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultOptions()
	opts.Workers = 2
	fired := false
	opts.Progress = func(Progress) {
		if !fired {
			fired = true
			cancel()
		}
	}
	rep, err := RunContext(ctx, sys, ms, opts)
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

func TestProgressStreamsEveryOutcome(t *testing.T) {
	sys := &fakeSystem{}
	ms := campaignMisconfs(24)
	opts := DefaultOptions()
	opts.Workers = 4
	var calls int
	var last int
	opts.Progress = func(p Progress) {
		calls++
		last = p.Done
		if p.Total != 24 {
			t.Errorf("total = %d, want 24", p.Total)
		}
	}
	if _, err := Run(sys, ms, opts); err != nil {
		t.Fatal(err)
	}
	if calls != 24 || last != 24 {
		t.Fatalf("progress calls=%d last=%d, want 24/24", calls, last)
	}
}

// Regression: cancelling a campaign must not drive progress to N/N. The
// dispatcher flushes a Result for every never-started index; those are
// marked Skipped and must be reported as skipped work, not done work.
func TestProgressOnCancellationReportsSkippedNotDone(t *testing.T) {
	sys := &fakeSystem{}
	ms := campaignMisconfs(40)
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultOptions()
	opts.Workers = 1
	var lastDone int
	opts.Progress = func(p Progress) {
		lastDone = p.Done
		if p.Done == 2 {
			cancel()
		}
	}
	rep, err := RunContext(ctx, sys, ms, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lastDone >= len(ms) {
		t.Fatalf("progress jumped to %d/%d on cancellation", lastDone, len(ms))
	}
	if rep.Skipped == 0 {
		t.Fatal("no outcomes tallied as skipped")
	}
	if got := len(rep.SkippedOutcomes()); got != rep.Skipped {
		t.Fatalf("SkippedOutcomes lists %d, tally says %d", got, rep.Skipped)
	}
	// Progress reported exactly the outcomes that were attempted (done or
	// errored in flight), never the flushed remainder.
	attempted := 0
	for _, o := range rep.Outcomes {
		if !o.Skipped {
			attempted++
		}
	}
	if lastDone != attempted {
		t.Fatalf("progress ended at %d, want the %d attempted outcomes", lastDone, attempted)
	}
	// Skipped outcomes are not harness failures.
	for _, o := range rep.Errors() {
		if o.Skipped {
			t.Fatalf("skipped outcome listed as a harness error: %+v", o)
		}
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
	rep, err := Run(sys, ms, DefaultOptions())
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
