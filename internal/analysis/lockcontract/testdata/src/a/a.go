// Positive cases for lockcontract: every `want` line must produce
// exactly that diagnostic. The conforming shapes live in b.go.
package a

import (
	"net/http"

	"spex/internal/campaignstore"
	"spex/internal/coord"
	"spex/internal/shard"
)

func discards(store *campaignstore.Store) {
	store.Lock() // want `lock handle discarded`
}

func blanks(store *campaignstore.Store) {
	_, _ = store.Lock() // want `lock handle discarded`
}

func neverReleases(store *campaignstore.Store) error {
	lk, err := store.Lock() // want `lock acquired but never released`
	if err != nil {
		return err
	}
	if lk == nil {
		return nil
	}
	return nil
}

func locksTwice(store *campaignstore.Store) error {
	first, err := store.Lock()
	if err != nil {
		return err
	}
	defer first.Unlock()
	second, err := store.Lock() // want `store already locked in this function`
	if err != nil {
		return err
	}
	defer second.Unlock()
	return nil
}

func locksInHandler(store *campaignstore.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		lk, err := store.Lock() // want `Lock inside an HTTP handler`
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer lk.Unlock()
	}
}

func locksInProgressCallback(store *campaignstore.Store) shard.Options {
	return shard.Options{
		OnProgress: func(p shard.Progress) {
			lk, err := store.Lock() // want `Lock inside a shard.Progress callback`
			if err != nil {
				return
			}
			defer lk.Unlock()
		},
	}
}

func locksInEventCallback(store *campaignstore.Store) coord.Config {
	return coord.Config{
		OnEvent: func(e coord.Event) {
			lk, err := store.Lock() // want `Lock inside a coord.Event callback`
			if err != nil {
				return
			}
			defer lk.Unlock()
		},
	}
}

func spellsLockName(dir string) string {
	return dir + "/.spex.lock" // want `campaignstore.LockPath`
}
