package shard

import (
	"context"
	"testing"

	"spex/internal/campaignstore"
)

// lockedCampaign runs CampaignAll under the store's writer lock — the
// lock-handle-per-run shape every production driver uses.
func lockedCampaign(t testing.TB, ctx context.Context, store *campaignstore.Store, ws []Workload, opts Options) ([]SystemRun, error) {
	t.Helper()
	lk, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if uerr := lk.Unlock(); uerr != nil {
			t.Error(uerr)
		}
	}()
	return CampaignAll(ctx, lk.Set(), ws, opts)
}

// saveLocked saves one snapshot under the store's writer lock.
func saveLocked(t testing.TB, store *campaignstore.Store, snap *campaignstore.Snapshot) error {
	t.Helper()
	lk, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if uerr := lk.Unlock(); uerr != nil {
			t.Error(uerr)
		}
	}()
	return lk.Set().Save(snap)
}

// mergeInto opens and locks the destination directory, then folds the
// shard directories into it.
func mergeInto(t testing.TB, dstDir string, srcs []string) ([]MergeStat, error) {
	t.Helper()
	dst, err := campaignstore.Open(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	lk, err := dst.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if uerr := lk.Unlock(); uerr != nil {
			t.Error(uerr)
		}
	}()
	return Merge(lk.Set(), srcs)
}
