// Negative cases: the contract-conforming shapes produce no
// diagnostics.
package a

import (
	"spex/internal/campaignstore"
)

type holder struct {
	lk *campaignstore.Lock
}

// Acquire-and-defer is the canonical shape.
func locksAndReleases(store *campaignstore.Store) error {
	lk, err := store.Lock()
	if err != nil {
		return err
	}
	defer lk.Unlock()
	return nil
}

// Returning the handle hands release to the caller.
func escapesByReturn(store *campaignstore.Store) (*campaignstore.Lock, error) {
	return store.Lock()
}

// Storing the handle transfers ownership to the holder.
func escapesIntoField(store *campaignstore.Store, h *holder) error {
	lk, err := store.Lock()
	if err != nil {
		return err
	}
	h.lk = lk
	return nil
}

// Sequential lock/unlock/lock on one store is legal: the direct
// Unlock releases before the second acquisition.
func relocks(store *campaignstore.Store) error {
	lk, err := store.Lock()
	if err != nil {
		return err
	}
	if err := lk.Unlock(); err != nil {
		return err
	}
	again, err := store.Lock()
	if err != nil {
		return err
	}
	return again.Unlock()
}

// The lock path is resolved through campaignstore, not spelled inline.
func lockPath(dir string) string {
	return campaignstore.LockPath(dir)
}
