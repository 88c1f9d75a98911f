package report

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"spex/internal/campaignstore"
	"spex/internal/inject"
	"spex/internal/outcomeindex"
	"spex/internal/shard"
	"spex/internal/sim"
	"spex/internal/spex"
)

// TestTableJSONRoundTrips: the HTTP API's JSON encoding must be
// lossless — unmarshalling a marshalled table yields an equal value
// whose text rendering is unchanged.
func TestTableJSONRoundTrips(t *testing.T) {
	rs := allResults(t)
	for n := 1; n <= MaxTable; n++ {
		tables, err := BuildTables(n, rs)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range tables {
			data, err := json.Marshal(tab)
			if err != nil {
				t.Fatalf("table %d: %v", n, err)
			}
			var back Table
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("table %d: %v", n, err)
			}
			if !reflect.DeepEqual(*tab, back) {
				t.Errorf("table %d (%q) does not round-trip through JSON", n, tab.Title)
			}
			if back.String() != tab.String() {
				t.Errorf("table %d (%q): text rendering changed across the JSON round-trip", n, tab.Title)
			}
			data2, err := json.Marshal(&back)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(data2) {
				t.Errorf("table %d (%q): re-marshalled JSON differs", n, tab.Title)
			}
		}
	}
}

// TestReplayFromIndexRejectsIncompleteState: an empty state directory
// must fail with ErrStateIncomplete (the daemon maps it to 409), never
// serve partial tables.
func TestReplayFromIndexRejectsIncompleteState(t *testing.T) {
	store, err := campaignstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayFromIndex(context.Background(), store); !errors.Is(err, ErrStateIncomplete) {
		t.Fatalf("err = %v, want ErrStateIncomplete", err)
	}
}

// TestReplayWorkloadsFromIndexRendersHandedIndexes: the analysis
// renders exactly the indexes it is handed and reads nothing else, so
// the daemon's tables can never show a newer store state than the
// indexes it hashed into their ETag.
func TestReplayWorkloadsFromIndexRendersHandedIndexes(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	live, err := AnalyzeAllContext(ctx, AnalyzeOptions{Workers: 4, State: lockedState(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	store, err := campaignstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	idxs, err := store.LoadIndexAll()
	if err != nil {
		t.Fatal(err)
	}
	systems := make([]sim.System, len(live))
	rs := make([]*spex.Result, len(live))
	for i, r := range live {
		systems[i], rs[i] = r.Sys, r.Inference
	}
	ws, _, err := shard.BuildWorkloads(systems, rs, shard.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReplayWorkloadsFromIndex(idxs, rs, ws)
	if err != nil {
		t.Fatal(err)
	}
	want := tableText(t, 5, live)
	if table := tableText(t, 5, got); table != want {
		t.Fatalf("the store's own indexes render a different Table 5:\n%s\nwant:\n%s", table, want)
	}

	// Hand over an ldapd index whose docs say every misconfiguration
	// crashed; the store on disk still holds the recorded reactions.
	for i, idx := range idxs {
		if idx.System == "ldapd" {
			changed := *idx
			changed.Docs = append([]outcomeindex.Doc(nil), idx.Docs...)
			for j := range changed.Docs {
				changed.Docs[j].Reaction = int(inject.ReactionCrash)
			}
			idxs[i] = &changed
		}
	}
	got, err = ReplayWorkloadsFromIndex(idxs, rs, ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.Sys.Name() != "ldapd" {
			continue
		}
		tallied := len(r.Campaign.Outcomes) - len(r.Campaign.Errors())
		if n := r.Campaign.CountByReaction()[inject.ReactionCrash]; n != tallied {
			t.Errorf("ldapd tallies %d crashes, want all %d handed docs", n, tallied)
		}
	}
	if tableText(t, 5, got) == want {
		t.Error("Table 5 ignores the handed ldapd docs and shows the store's reactions")
	}
}

// TestReplayFromIndexMatchesStoreReplay: the index-backed read path
// must render every table byte-identically to the live run that wrote
// the store — the daemon serves tables from indexes alone.
func TestReplayFromIndexMatchesStoreReplay(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	live, err := AnalyzeAllContext(ctx, AnalyzeOptions{Workers: 4, State: lockedState(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	store, err := campaignstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := ReplayFromIndex(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= MaxTable; n++ {
		if n == 10 {
			continue // rendered together with table 9
		}
		a, err := RenderTableText(n, live)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RenderTableText(n, indexed)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("table %d: index-backed rendering differs from the live run's", n)
		}
	}
	// The campaign-consuming figures too.
	if a, b := Figure3(live), Figure3(indexed); a != b {
		t.Error("figure 3: index-backed rendering differs")
	}
	if a, b := Figure6(live), Figure6(indexed); a != b {
		t.Error("figure 6: index-backed rendering differs")
	}

	// An empty store still refuses partial service.
	empty, err := campaignstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayFromIndex(ctx, empty); !errors.Is(err, ErrStateIncomplete) {
		t.Fatalf("err = %v, want ErrStateIncomplete", err)
	}
}
