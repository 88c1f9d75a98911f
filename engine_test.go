// End-to-end tests for the concurrent campaign engine: a full parallel
// injection campaign over every target under the race detector, a
// determinism check that the parallel report equals the sequential one
// outcome-for-outcome, and a persisted campaign's 100% replay.
package spex_test

import (
	"context"
	"reflect"
	"testing"

	"spex/internal/campaignstore"
	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/inject"
	"spex/internal/report"
	"spex/internal/shard"
	"spex/internal/sim"
	"spex/internal/spex"
	"spex/internal/targets"
)

// campaignFor generates the full misconfiguration list for one target.
func campaignFor(t testing.TB, sys sim.System) []confgen.Misconf {
	t.Helper()
	res, err := spex.InferSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := conffile.Parse(sys.DefaultConfig(), sys.Syntax())
	if err != nil {
		t.Fatal(err)
	}
	return confgen.NewRegistry().Generate(res.Set, tmpl)
}

// TestParallelCampaignMatchesSequential drives the Table 5 campaign for
// every target through the campaign scheduler (shard.CampaignAll) on a
// one-wide and a four-wide pool and requires both reports to match the
// reference run (inject.RunContext) outcome-for-outcome. Run under -race this
// doubles as the full-campaign race test: every boot, functional test,
// and substrate operation of all seven targets executes concurrently.
func TestParallelCampaignMatchesSequential(t *testing.T) {
	for _, sys := range targets.All() {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			t.Parallel() // cross-target concurrency on top of intra-campaign workers
			res, err := spex.InferSystem(sys)
			if err != nil {
				t.Fatal(err)
			}
			ws, _, err := shard.BuildWorkloads([]sim.System{sys}, []*spex.Result{res}, shard.Plan{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := inject.RunContext(context.Background(), sys, ws[0].Ms, inject.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				runs, err := shard.CampaignAll(context.Background(), nil, ws,
					shard.Options{Workers: workers, Inject: inject.DefaultOptions()})
				if err != nil {
					t.Fatal(err)
				}
				got := runs[0].Report
				if len(got.Outcomes) != len(ref.Outcomes) {
					t.Fatalf("workers=%d: report has %d outcomes, reference %d", workers, len(got.Outcomes), len(ref.Outcomes))
				}
				for i := range ref.Outcomes {
					if !reflect.DeepEqual(got.Outcomes[i], ref.Outcomes[i]) {
						t.Errorf("workers=%d: outcome %d (%s) differs:\nscheduled: %+v\nreference: %+v",
							workers, i, ref.Outcomes[i].Misconf.ID, got.Outcomes[i], ref.Outcomes[i])
					}
				}
				if got.TotalSimCost != ref.TotalSimCost {
					t.Errorf("workers=%d: sim cost %d, reference %d", workers, got.TotalSimCost, ref.TotalSimCost)
				}
			}
		})
	}
}

// TestAnalyzeAllParallelMatchesSequential checks the full seven-system
// evaluation pipeline at the report layer: a one-worker pool and a wide
// cross-target pool must produce the same tables and outcomes.
func TestAnalyzeAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	seq, err := report.AnalyzeAllContext(context.Background(), report.AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := report.AnalyzeAllContext(context.Background(), report.AnalyzeOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, 11} {
		a, err := report.RenderTableText(n, seq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := report.RenderTableText(n, par)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("Table %d differs between sequential and parallel analysis", n)
		}
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i].Campaign.Outcomes, par[i].Campaign.Outcomes) {
			t.Errorf("%s: campaign outcomes differ", seq[i].Sys.Name())
		}
	}
}

// TestIncrementalCampaignOnRealTarget persists a mydb campaign through
// the store-backed global scheduler: an unchanged rerun must replay
// every outcome from the snapshot at zero fresh cost and reproduce the
// full report exactly.
func TestIncrementalCampaignOnRealTarget(t *testing.T) {
	sys := targets.ByName("mydb")
	res, err := spex.InferSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	ms := campaignFor(t, sys)
	store, err := campaignstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lk, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Unlock()
	run := func() shard.SystemRun {
		t.Helper()
		runs, err := shard.CampaignAll(context.Background(), lk.Set(),
			[]shard.Workload{{Sys: sys, Set: res.Set, Ms: ms}},
			shard.Options{Workers: 4, Inject: inject.DefaultOptions()})
		if err == nil {
			err = runs[0].Err
		}
		if err != nil {
			t.Fatal(err)
		}
		return runs[0]
	}
	full := run()
	inc := run()
	if !inc.Status.Replayed || inc.Status.Retests != 0 {
		t.Fatalf("unchanged rerun status = %+v, want a replay with zero retests", inc.Status)
	}
	if inc.Report.Replayed != len(ms) {
		t.Fatalf("unchanged rerun replayed %d of %d outcomes", inc.Report.Replayed, len(ms))
	}
	if inc.Report.TotalSimCost != 0 {
		t.Fatalf("unchanged rerun re-executed work: cost %d", inc.Report.TotalSimCost)
	}
	if !reflect.DeepEqual(inc.Report.Outcomes, full.Report.Outcomes) {
		t.Fatal("replayed report differs from the full campaign")
	}
}
