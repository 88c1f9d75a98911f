package campaignstore

import (
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"

	"spex/internal/inject"
)

// TestSaveKeepsIndexInMemory: a store answers LoadIndex for a system it
// saved from the index its writer built, without going to disk — with
// the sidecar deleted, the read must not recreate it — and that index
// is exactly what a freshly opened store rebuilds from the snapshot or
// decodes from the sidecar: docs, posting lists, aggregates and meta.
func TestSaveKeepsIndexInMemory(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lock, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Unlock()
	snap := New("storefake", mkSet(basicC("p")), inject.DefaultOptions(), fixtureOutcomes(t, 18))
	if err := lock.Set().Save(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(store.IndexPath("storefake")); err != nil {
		t.Fatal(err)
	}

	hits, rebuilds := mIndexHits.Value(), mIndexRebuilds.Value()
	got, err := store.LoadIndex("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store.IndexPath("storefake")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("LoadIndex after the store's own save went to disk (sidecar stat: %v)", err)
	}
	if h, r := mIndexHits.Value()-hits, mIndexRebuilds.Value()-rebuilds; h != 1 || r != 0 {
		t.Errorf("LoadIndex after a save counted %d hits and %d rebuilds, want 1 and 0", h, r)
	}

	// The first fresh store rebuilds from the snapshot and writes the
	// sidecar; the second decodes that sidecar.
	for _, from := range []string{"snapshot", "sidecar"} {
		fresh, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.LoadIndex("storefake")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("the saved index differs from the one decoded from the %s:\ngot  %+v\nwant %+v", from, got, want)
		}
	}
}

// TestForeignSaveInvalidatesIndex: a save through a second Store on the
// same directory — another process's writer, as far as the first store
// knows — moves the first store's LoadIndex to the new snapshot.
func TestForeignSaveInvalidatesIndex(t *testing.T) {
	dir := t.TempDir()
	save := func(s *Store, n int) string {
		t.Helper()
		lock, err := s.Lock()
		if err != nil {
			t.Fatal(err)
		}
		defer lock.Unlock()
		snap := New("storefake", mkSet(basicC("p")), inject.DefaultOptions(), fixtureOutcomes(t, n))
		if err := lock.Set().Save(snap); err != nil {
			t.Fatal(err)
		}
		fp, err := snap.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	first, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := save(first, 12)
	if idx, err := first.LoadIndex("storefake"); err != nil || idx.Fingerprint != old {
		t.Fatalf("LoadIndex after the first save: %v, %v; want fingerprint %s", idx, err, old)
	}
	// A different outcome count changes the file's size, so the identity
	// moves even where mtimes are coarse.
	fp := save(foreign, 15)
	idx, err := first.LoadIndex("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if idx.Fingerprint != fp || len(idx.Docs) != 15 {
		t.Errorf("after a foreign save LoadIndex serves fingerprint %s with %d docs, want %s with 15 (old %s)",
			idx.Fingerprint, len(idx.Docs), fp, old)
	}
}

// TestConcurrentSavesAndLoadIndex: saves and LoadIndex calls for one
// system on one store run at once (under -race in CI). Every index read
// is one of the saved snapshots', and once the saves are done the store
// serves the snapshot on disk.
func TestConcurrentSavesAndLoadIndex(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lock, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Unlock()
	set := lock.Set()
	const savers, saves, readers, reads = 3, 4, 3, 20
	snaps := make([]*Snapshot, savers)
	saved := make(map[string]bool, savers)
	for i := range snaps {
		snaps[i] = New("storefake", mkSet(basicC("p")), inject.DefaultOptions(), fixtureOutcomes(t, 8+i))
		fp, err := snaps[i].Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		saved[fp] = true
	}
	if err := set.Save(snaps[0]); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < savers; i++ {
		wg.Add(1)
		go func(snap *Snapshot) {
			defer wg.Done()
			for n := 0; n < saves; n++ {
				if err := set.Save(snap); err != nil {
					t.Error(err)
					return
				}
			}
		}(snaps[i])
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < reads; n++ {
				idx, err := store.LoadIndex("storefake")
				if err != nil {
					t.Error(err)
					return
				}
				if !saved[idx.Fingerprint] {
					t.Errorf("LoadIndex served fingerprint %s, which no save wrote", idx.Fingerprint)
					return
				}
			}
		}()
	}
	wg.Wait()

	onDisk, err := store.Load("storefake")
	if err != nil {
		t.Fatal(err)
	}
	want, err := onDisk.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := store.LoadIndex("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if idx.Fingerprint != want || len(idx.Docs) != len(onDisk.Outcomes) {
		t.Errorf("after the saves LoadIndex serves %s with %d docs; the snapshot on disk is %s with %d outcomes",
			idx.Fingerprint, len(idx.Docs), want, len(onDisk.Outcomes))
	}
}
