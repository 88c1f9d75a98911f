package shard

import (
	"context"
	"testing"

	"spex/internal/campaignstore"
	"spex/internal/inject"
	"spex/internal/spex"
	"spex/internal/targets"
)

// BenchmarkCampaignAllWarm measures one warm campaign-service job in
// process: the seven inferred targets run against a store one campaign
// has filled, so each iteration's CampaignAll (two workers) loads,
// replays every outcome and re-saves every system, and executes
// nothing. Run it with -benchmem: the load and the save are most of
// what it allocates.
func BenchmarkCampaignAllWarm(b *testing.B) {
	systems := targets.All()
	rs, err := spex.InferAll(context.Background(), systems, 2)
	if err != nil {
		b.Fatal(err)
	}
	ws, _, err := BuildWorkloads(systems, rs, Plan{})
	if err != nil {
		b.Fatal(err)
	}
	store, err := campaignstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	lk, err := store.Lock()
	if err != nil {
		b.Fatal(err)
	}
	defer lk.Unlock()
	opts := Options{Workers: 2, Inject: inject.DefaultOptions()}
	if _, err := CampaignAll(context.Background(), lk.Set(), ws, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := CampaignAll(context.Background(), lk.Set(), ws, opts)
		if err != nil {
			b.Fatal(err)
		}
		for j, run := range runs {
			if run.Report.Replayed != len(ws[j].Ms) || !run.Status.Saved || run.Err != nil {
				b.Fatalf("%s: replayed %d of %d, saved %v: %v",
					run.Sys.Name(), run.Report.Replayed, len(ws[j].Ms), run.Status.Saved, run.Err)
			}
		}
	}
}
