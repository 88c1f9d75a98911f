// An outcome index is read from one file, its system's snapshot. The
// fuzz target lives in the external test package because campaignstore,
// which reads snapshots, imports outcomeindex.
package outcomeindex_test

import (
	"bytes"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"spex/internal/campaignstore"
	"spex/internal/constraint"
	"spex/internal/inject"
	"spex/internal/outcomeindex"
)

// saved saves snap in a fresh store and returns the file's bytes.
func saved(t testing.TB, snap *campaignstore.Snapshot) []byte {
	t.Helper()
	store, err := campaignstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lk, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	err = lk.Set().Save(snap)
	if uerr := lk.Unlock(); uerr != nil {
		t.Fatal(uerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path(snap.System))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// snapshotFile saves the outcomes as the system's snapshot and returns
// the file's bytes.
func snapshotFile(f *testing.F, system string, outcomes map[string]inject.Outcome) []byte {
	f.Helper()
	return saved(f, campaignstore.New(system, constraint.NewSet(system), inject.DefaultOptions(), outcomes))
}

// FuzzReadIndexFile: an outcome index is read from untrusted disk
// input, its system's snapshot file. A fresh store's LoadIndex over any
// file must succeed exactly when Load does, and then return an index
// whose queries never panic, whose aggregates are exactly what its docs
// add up to, and which equals a Builder fed Load's outcomes in key order
// under Load's header. Its fingerprint hashes the stored payloads, so it
// must equal Snapshot.Fingerprint wherever a save of the loaded snapshot
// writes the input's bytes again.
func FuzzReadIndexFile(f *testing.F) {
	valid := snapshotFile(f, "alpha", outcomeindex.Fixture("alpha", 12))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// Reactions outside the enum, a harness error and negative lines.
	odd := outcomeindex.Fixture("alpha", 4)
	keys := make([]string, 0, len(odd))
	for k := range odd {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		o := odd[k]
		o.Reaction = []inject.Reaction{-7, 99, inject.ReactionCrash, inject.ReactionCrash}[i]
		o.Loc.Line = -i
		if i == 3 {
			o.Err = "boot failed"
		}
		odd[k] = o
	}
	f.Add(snapshotFile(f, "alpha", odd))
	// Another system's snapshot under alpha's file name.
	f.Add(snapshotFile(f, "beta", outcomeindex.Fixture("beta", 3)))
	// Alpha's snapshot under another schema.
	schema := `"schema":"` + campaignstore.SchemaFingerprint() + `"`
	if !bytes.Contains(valid, []byte(schema)) {
		f.Fatalf("snapshot header lacks %s", schema)
	}
	f.Add(bytes.Replace(valid, []byte(schema), []byte(`"schema":"`+strings.Repeat("0", len(campaignstore.SchemaFingerprint()))+`"`), 1))
	f.Add([]byte("not a snapshot"))
	f.Fuzz(func(t *testing.T, data []byte) {
		store, err := campaignstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(store.Path("alpha"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		sys, err := store.LoadIndex("alpha")
		snap, loadErr := store.Load("alpha")
		if (err == nil) != (loadErr == nil) {
			t.Fatalf("LoadIndex = %v, but Load = %v", err, loadErr)
		}
		if err != nil {
			return
		}
		want := outcomeindex.BuildIndex(outcomeindex.Meta{
			System:         snap.System,
			Fingerprint:    sys.Fingerprint,
			SavedAt:        snap.SavedAt,
			Options:        snap.Options,
			SetFingerprint: snap.SetFingerprint,
		}, snap.Outcomes)
		if !reflect.DeepEqual(sys, want) {
			t.Fatalf("LoadIndex built %+v, a Builder fed Load's outcomes %+v", sys, want)
		}
		if fp, err := snap.Fingerprint(); err != nil {
			t.Fatal(err)
		} else if fp != sys.Fingerprint && bytes.Equal(saved(t, snap), data) {
			t.Fatalf("LoadIndex fingerprint %s, Snapshot.Fingerprint %s of a snapshot a save writes", sys.Fingerprint, fp)
		}
		queries := []outcomeindex.Query{{}, {All: true}, {MinSystems: 2}}
		for i := range sys.Docs {
			if i == 8 {
				break
			}
			d := &sys.Docs[i]
			queries = append(queries,
				outcomeindex.Query{Param: d.Param}, outcomeindex.Query{Kind: d.Kind, All: true},
				outcomeindex.Query{Reaction: d.ReactionName(), All: true},
				outcomeindex.Query{Param: d.Param, Kind: d.Kind, Reaction: d.ReactionName()})
		}
		for _, q := range queries {
			outcomeindex.Run([]*outcomeindex.System{sys, sys}, q)
		}
		if got, want := sys.Agg, docAggregates(sys.Docs); !reflect.DeepEqual(got, want) {
			t.Fatalf("aggregates %+v do not match the docs' %+v", got, want)
		}
	})
}

// docAggregates tallies docs directly — the reference the fuzz target
// holds a loaded index's aggregates to.
func docAggregates(docs []outcomeindex.Doc) outcomeindex.Aggregates {
	agg := outcomeindex.Aggregates{Outcomes: len(docs), ByReaction: map[string]int{}}
	for i := range docs {
		d := &docs[i]
		if d.Err != "" {
			continue
		}
		agg.ByReaction[d.ReactionName()]++
		if d.Vulnerability() {
			agg.Vulnerabilities++
		}
	}
	return agg
}
