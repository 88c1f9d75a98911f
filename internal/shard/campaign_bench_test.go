package shard_test

import (
	"context"
	"os"
	"testing"

	"spex/internal/campaignstore"
	"spex/internal/constraint"
	"spex/internal/inject"
	"spex/internal/shard"
	"spex/internal/sim"
	"spex/internal/spex"
)

// BenchmarkCampaignAllCold measures one cold campaign-service job in
// process: each iteration runs one CampaignAll (two workers) over the
// seven inferred targets into a fresh, empty store, so every
// misconfiguration boots its target and every system saves. The store
// is made, locked, released and removed with the timer stopped. exec/op
// counts the executed misconfigurations per job. Run it with -benchmem.
func BenchmarkCampaignAllCold(b *testing.B) {
	ws := allWorkloads(b)
	root := b.TempDir()
	opts := shard.Options{Workers: 2, Inject: inject.DefaultOptions()}
	executed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(root, "")
		if err != nil {
			b.Fatal(err)
		}
		store, err := campaignstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		lk, err := store.Lock()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		runs, err := shard.CampaignAll(context.Background(), lk.Set(), ws, opts)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		for j, run := range runs {
			if run.Report.Replayed != 0 || run.Report.Finished() != len(ws[j].Ms) || !run.Status.Saved || run.Err != nil {
				b.Fatalf("%s: executed %d of %d, replayed %d, saved %v: %v", run.Sys.Name(),
					run.Report.Finished()-run.Report.Replayed, len(ws[j].Ms), run.Report.Replayed, run.Status.Saved, run.Err)
			}
			executed += run.Report.Finished()
		}
		if err := lk.Unlock(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(executed)/float64(b.N), "exec/op")
}

// BenchmarkCampaignAllWarm measures one warm campaign-service job in
// process: the seven inferred targets run against a store one campaign
// has filled, so each iteration's CampaignAll (two workers) loads and
// replays every outcome, executes nothing and finds every system
// unchanged. It saves nothing, and after the timed loop every snapshot
// still has the bytes and mtime the filling campaign gave it. Run it
// with -benchmem: the load is most of what it allocates.
func BenchmarkCampaignAllWarm(b *testing.B) {
	ws := allWorkloads(b)
	store, locks := lockedStore(b, b.TempDir())
	campaign(b, locks, ws, 2)
	files := snapshotFiles(b, store, ws)
	opts := shard.Options{Workers: 2, Inject: inject.DefaultOptions()}
	var runs []shard.SystemRun
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if runs, err = shard.CampaignAll(context.Background(), locks, ws, opts); err != nil {
			b.Fatal(err)
		}
		for j, run := range runs {
			if run.Report.Replayed != len(ws[j].Ms) || run.Status.Saved || !run.Status.Unchanged || run.Err != nil {
				b.Fatalf("%s: replayed %d of %d, saved %v, unchanged %v: %v", run.Sys.Name(),
					run.Report.Replayed, len(ws[j].Ms), run.Status.Saved, run.Status.Unchanged, run.Err)
			}
		}
	}
	b.StopTimer()
	checkUnchanged(b, store, runs, files)
}

// BenchmarkCampaignAllDelta measures the paper's incremental rerun
// (§3.1): a job whose inferred constraints differ from the stored ones.
// Beside the seven targets' workloads it builds a second set that drops
// each system's last inferred constraint and regenerates its
// misconfigurations. A store is filled with the first set, and the
// iterations alternate between the two, so each one loads every
// snapshot, executes the delta (the dropped constraint's
// misconfigurations when it comes back, retests of its parameter's
// others when it goes), replays the rest and saves every system.
// exec/op and replay/op count the executed and replayed
// misconfigurations per job.
func BenchmarkCampaignAllDelta(b *testing.B) {
	ws := allWorkloads(b)
	systems := make([]sim.System, len(ws))
	dropped := make([]*spex.Result, len(ws))
	for i, w := range ws {
		set := constraint.NewSet(w.Set.System)
		for _, c := range w.Set.Constraints[:len(w.Set.Constraints)-1] {
			set.Add(c)
		}
		systems[i], dropped[i] = w.Sys, &spex.Result{System: w.Sys.Name(), Set: set}
	}
	delta, _, err := shard.BuildWorkloads(systems, dropped, shard.Plan{})
	if err != nil {
		b.Fatal(err)
	}
	_, locks := lockedStore(b, b.TempDir())
	campaign(b, locks, ws, 2)
	sets := [2][]shard.Workload{delta, ws}
	opts := shard.Options{Workers: 2, Inject: inject.DefaultOptions()}
	executed, replayed := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := shard.CampaignAll(context.Background(), locks, sets[i%2], opts)
		if err != nil {
			b.Fatal(err)
		}
		exec, rep := 0, 0
		for _, run := range runs {
			if !run.Status.Saved || run.Err != nil {
				b.Fatalf("%s: saved %v: %v", run.Sys.Name(), run.Status.Saved, run.Err)
			}
			exec += run.Report.Finished() - run.Report.Replayed
			rep += run.Report.Replayed
		}
		if exec == 0 || rep == 0 {
			b.Fatalf("iteration %d executed %d and replayed %d misconfigurations, want some of each", i, exec, rep)
		}
		executed += exec
		replayed += rep
	}
	b.ReportMetric(float64(executed)/float64(b.N), "exec/op")
	b.ReportMetric(float64(replayed)/float64(b.N), "replay/op")
}
