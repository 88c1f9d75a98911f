package campaignstore

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"spex/internal/inject"
	"spex/internal/outcomeindex"
)

// TestSaveKeepsIndexInMemory: a store answers LoadIndex for a system it
// saved from the index its writer built, one cache hit and no rebuild,
// and that index is exactly what each freshly opened store rebuilds
// from the snapshot: docs, posting lists, aggregates and meta.
func TestSaveKeepsIndexInMemory(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	saveSystem(t, store, "storefake", 18)

	hits, rebuilds := mIndexHits.Value(), mIndexRebuilds.Value()
	got, err := store.LoadIndex("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if h, r := mIndexHits.Value()-hits, mIndexRebuilds.Value()-rebuilds; h != 1 || r != 0 {
		t.Errorf("LoadIndex after a save counted %d hits and %d rebuilds, want 1 and 0", h, r)
	}

	for i := 0; i < 2; i++ {
		hits, rebuilds := mIndexHits.Value(), mIndexRebuilds.Value()
		want, err := openStore(t, dir).LoadIndex("storefake")
		if err != nil {
			t.Fatal(err)
		}
		if h, r := mIndexHits.Value()-hits, mIndexRebuilds.Value()-rebuilds; h != 0 || r != 1 {
			t.Errorf("fresh store %d counted %d hits and %d rebuilds, want 0 and 1", i, h, r)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("the saved index differs from the one fresh store %d rebuilt from the snapshot:\ngot  %+v\nwant %+v", i, got, want)
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

// saveSystem saves an n-outcome snapshot for the system through s.
func saveSystem(t *testing.T, s *Store, system string, n int) {
	t.Helper()
	lock, err := s.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Unlock()
	if err := lock.Set().Save(New(system, mkSet(basicC("p")), inject.DefaultOptions(), fixtureOutcomes(t, n))); err != nil {
		t.Fatal(err)
	}
}

// openStore opens a Store on dir.
func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rewriteInPlace overwrites the one occurrence of from in a snapshot
// file with to, of equal length, and restores the file's mtime, so the
// file keeps the identity (name, size, mtime) a held index was derived
// from while its bytes say something else.
func rewriteInPlace(t *testing.T, path, from, to string) {
	t.Helper()
	if len(from) != len(to) {
		t.Fatalf("rewriteInPlace: %q and %q differ in length", from, to)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte(from)); n != 1 {
		t.Fatalf("%s holds %s %d times, want once", path, from, n)
	}
	if err := os.WriteFile(path, bytes.Replace(data, []byte(from), []byte(to), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(path); err != nil || after.Size() != fi.Size() || !after.ModTime().Equal(fi.ModTime()) {
		t.Fatalf("rewriteInPlace changed the identity of %s: %v", path, err)
	}
}

// indexNames returns each index's system name and fingerprint.
func indexNames(idxs []*outcomeindex.System) []string {
	out := make([]string, len(idxs))
	for i, idx := range idxs {
		out[i] = idx.System + "@" + idx.Fingerprint
	}
	return out
}

// TestHeldIndexesNameTheirFiles: a store that saved or loaded every
// system answers LoadIndexAll from the indexes it holds, one index cache
// hit each and no snapshot read: a header rewritten in place under the
// same name, size and mtime still loads as saved there. Every store
// names each file by its file name, and a freshly opened one reads the
// rewritten file and refuses its header's other name, as Load does.
func TestHeldIndexesNameTheirFiles(t *testing.T) {
	dir := t.TempDir()
	saver := openStore(t, dir)
	systems := []string{"alpha", "beta", "gamma"}
	for i, system := range systems {
		saveSystem(t, saver, system, 10+i)
	}
	want, err := saver.LoadIndexAll()
	if err != nil {
		t.Fatal(err)
	}
	loader := openStore(t, dir)
	if got, err := loader.LoadIndexAll(); err != nil || !reflect.DeepEqual(indexNames(got), indexNames(want)) {
		t.Fatalf("a fresh store's LoadIndexAll = %v, %v; want %v", indexNames(got), err, indexNames(want))
	}

	rewriteInPlace(t, saver.Path("beta"), `"system":"beta"`, `"system":"bext"`)
	fresh := openStore(t, dir)
	for name, s := range map[string]*Store{"saved": saver, "loaded": loader, "fresh": fresh} {
		if got, err := s.List(); err != nil || !reflect.DeepEqual(got, systems) {
			t.Errorf("the %s store lists %v, %v; want %v", name, got, err, systems)
		}
	}
	for name, s := range map[string]*Store{"saved": saver, "loaded": loader} {
		hits, rebuilds := mIndexHits.Value(), mIndexRebuilds.Value()
		got, err := s.LoadIndexAll()
		if err != nil || !reflect.DeepEqual(indexNames(got), indexNames(want)) {
			t.Errorf("the store that %s every system loads %v, %v; want %v", name, indexNames(got), err, indexNames(want))
		}
		if h, r := mIndexHits.Value()-hits, mIndexRebuilds.Value()-rebuilds; h != uint64(len(systems)) || r != 0 {
			t.Errorf("LoadIndexAll on the store that %s every system counted %d hits and %d rebuilds, want %d and 0",
				name, h, r, len(systems))
		}
	}
	if idxs, err := fresh.LoadIndexAll(); err == nil || !strings.Contains(err.Error(), `names system "bext", want "beta"`) {
		t.Errorf("a fresh store's LoadIndexAll = %v, %v; want the rewritten header refused", indexNames(idxs), err)
	}
}

// TestStaleHeldIndexesFallBackToHeaders: once a snapshot file no longer
// has the identity its held index was derived from, the holding store
// falls back to the file itself: it lists and loads exactly what a
// freshly opened store does. Each index it still holds current is one
// cache hit.
func TestStaleHeldIndexesFallBackToHeaders(t *testing.T) {
	for _, tc := range []struct {
		name string
		// change rewrites the directory behind the holder's back, after
		// it saved alpha and beta with 12 outcomes each. The new snapshots
		// have 15, so the size moves even where mtimes are coarse.
		change func(t *testing.T, dir string)
		list   []string
		// gone is a system the holder saved and must no longer load.
		gone string
	}{
		{"foreign save", func(t *testing.T, dir string) {
			saveSystem(t, openStore(t, dir), "beta", 15)
		}, []string{"alpha", "beta"}, ""},
		{"deleted snapshot", func(t *testing.T, dir string) {
			if err := os.Remove(openStore(t, dir).Path("beta")); err != nil {
				t.Fatal(err)
			}
		}, []string{"alpha"}, "beta"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			holder := openStore(t, dir)
			saveSystem(t, holder, "alpha", 12)
			saveSystem(t, holder, "beta", 12)
			tc.change(t, dir)

			if got, err := holder.List(); err != nil || !reflect.DeepEqual(got, tc.list) {
				t.Errorf("the holder lists %v, %v; want %v", got, err, tc.list)
			}
			hits := mIndexHits.Value()
			got, err := holder.LoadIndexAll()
			if err != nil {
				t.Fatal(err)
			}
			if h := mIndexHits.Value() - hits; h != 1 {
				t.Errorf("LoadIndexAll counted %d index cache hits, want 1 (the snapshot the change left alone)", h)
			}
			fresh, err := openStore(t, dir).LoadIndexAll()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(indexNames(got), indexNames(fresh)) {
				t.Errorf("the holder loads %v, a fresh store %v", indexNames(got), indexNames(fresh))
			}
			if tc.gone != "" {
				if idx, err := holder.LoadIndex(tc.gone); err == nil {
					t.Errorf("the holder still loads %s: %s", tc.gone, idx.System+"@"+idx.Fingerprint)
				}
			}
		})
	}
}

// TestSchemaStaleSnapshotHasNoIndex: a snapshot rewritten in place to
// name another schema fingerprint, under the same size and mtime, gets
// no index from a freshly opened store: LoadIndex and LoadIndexAll
// return ErrStale, as Load does.
func TestSchemaStaleSnapshotHasNoIndex(t *testing.T) {
	dir := t.TempDir()
	saver := openStore(t, dir)
	saveSystem(t, saver, "storefake", 12)
	rewriteInPlace(t, saver.Path("storefake"), `"schema":"`+SchemaFingerprint()+`"`, `"schema":"v0-0123456789abcdef"`)

	if _, err := openStore(t, dir).Load("storefake"); !errors.Is(err, ErrStale) {
		t.Fatalf("Load = %v, want ErrStale", err)
	}
	if _, err := openStore(t, dir).LoadIndex("storefake"); !errors.Is(err, ErrStale) {
		t.Errorf("a fresh store's LoadIndex = %v, want ErrStale", err)
	}
	if idxs, err := openStore(t, dir).LoadIndexAll(); !errors.Is(err, ErrStale) {
		t.Errorf("a fresh store's LoadIndexAll = %v, %v; want ErrStale", indexNames(idxs), err)
	}
}
