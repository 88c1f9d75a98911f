// Older builds persisted each outcome index beside its snapshot, in a
// <system>.campaign.idx sidecar. This test lives in the external test
// package because it merges through shard, which imports campaignstore.
package campaignstore_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spex/internal/campaignstore"
	"spex/internal/inject"
	"spex/internal/outcomeindex"
	"spex/internal/shard"
)

// TestLoadIndexSidecar: no save or merge writes a .campaign.idx file,
// and one that an older build left beside a snapshot is neither read
// nor deleted. Garbage, or a well-formed file that records the
// snapshot's current name, size and mtime but forges its docs and
// tallies, changes no List, LoadIndex or merge result.
func TestLoadIndexSidecar(t *testing.T) {
	set := mkSet(basicC("p"), basicC("q"))
	opts := inject.DefaultOptions()
	ms := misconfs(set.Constraints[0], 2)
	d1, d2 := t.TempDir(), t.TempDir()

	// locked runs fn under dir's writer lock.
	locked := func(dir string, fn func(*campaignstore.LockSet) error) {
		t.Helper()
		store, err := campaignstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		lk, err := store.Lock()
		if err != nil {
			t.Fatal(err)
		}
		err = fn(lk.Set())
		if uerr := lk.Unlock(); uerr != nil {
			t.Error(uerr)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for dir, o := range map[string]inject.Outcome{
		d1: {Misconf: ms[0], Reaction: inject.ReactionCrash},
		d2: {Misconf: ms[1], Reaction: inject.ReactionTolerated},
	} {
		locked(dir, func(ls *campaignstore.LockSet) error {
			return ls.Save(campaignstore.New("storefake", set, opts, map[string]inject.Outcome{inject.CacheKey(o.Misconf): o}))
		})
	}

	noSidecars := func(dirs ...string) {
		t.Helper()
		for _, dir := range dirs {
			if idx, _ := filepath.Glob(filepath.Join(dir, "*.campaign.idx")); len(idx) != 0 {
				t.Errorf("%s holds %v, want no index files", dir, idx)
			}
		}
	}
	// read is what a freshly opened store reads from dir.
	type reads struct {
		list  []string
		index *outcomeindex.System
	}
	read := func(dir string) reads {
		t.Helper()
		store, err := campaignstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var r reads
		if r.list, err = store.List(); err != nil {
			t.Fatal(err)
		}
		if r.index, err = store.LoadIndex("storefake"); err != nil {
			t.Fatal(err)
		}
		return r
	}
	show := func(r reads) string {
		return fmt.Sprintf("%v index %s with %d docs", r.list, r.index.Fingerprint, len(r.index.Docs))
	}
	// merge folds d1 and d2 into a new store and returns the merged
	// snapshot's fingerprint and index docs, which leave out its save time.
	merge := func() (string, []outcomeindex.Doc) {
		t.Helper()
		dst := t.TempDir()
		locked(dst, func(ls *campaignstore.LockSet) error {
			_, err := shard.Merge(ls, []string{d1, d2})
			return err
		})
		noSidecars(dst)
		store, err := campaignstore.Open(dst)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := store.Load("storefake")
		if err != nil {
			t.Fatal(err)
		}
		fp, err := snap.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		idx, err := store.LoadIndex("storefake")
		if err != nil {
			t.Fatal(err)
		}
		return fp, idx.Docs
	}

	noSidecars(d1, d2)
	want1, want2 := read(d1), read(d2)
	wantFP, wantDocs := merge()

	fi, err := os.Stat(filepath.Join(d2, "storefake.campaign.snap"))
	if err != nil {
		t.Fatal(err)
	}
	leftovers := map[string]string{
		filepath.Join(d1, "storefake.campaign.idx"): "not an index",
		filepath.Join(d2, "storefake.campaign.idx"): fmt.Sprintf(`{"version":2,"snap":%q,"snap_size":%d,"snap_mtime":%d,`+
			`"sys":{"system":"storefake","fingerprint":"forged","docs":[{"key":"forged","reaction":0}],"agg":{"vulnerabilities":12345}}}`,
			fi.Name(), fi.Size(), fi.ModTime().UnixNano()),
	}
	for path, data := range leftovers {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := read(d1); !reflect.DeepEqual(got, want1) {
		t.Errorf("with a garbage index file a fresh store reads %s, want %s", show(got), show(want1))
	}
	if got := read(d2); !reflect.DeepEqual(got, want2) {
		t.Errorf("with a forged index file a fresh store reads %s, want %s", show(got), show(want2))
	}
	if fp, docs := merge(); fp != wantFP || !reflect.DeepEqual(docs, wantDocs) {
		t.Errorf("with leftover index files the merge is %s %+v, want %s %+v", fp, docs, wantFP, wantDocs)
	}
	for path, data := range leftovers {
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Errorf("leftover %s now reads %q, %v; want it untouched", path, got, err)
		}
	}
}
