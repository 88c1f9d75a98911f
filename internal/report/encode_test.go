package report

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"spex/internal/campaignstore"
)

// TestRenderTableTextMatchesLegacyRenderers is the golden half of the
// machine-readable encoding path: the structured builders must render
// text byte-identical to the public string renderers spexeval has
// always printed (which are now thin wrappers, so this guards against
// the two paths drifting apart again).
func TestRenderTableTextMatchesLegacyRenderers(t *testing.T) {
	rs := allResults(t)
	legacy := map[int]string{
		1:  Table1(rs),
		2:  Table2(),
		3:  Table3(rs),
		4:  Table4(rs),
		5:  Table5(rs),
		6:  Table6(rs),
		7:  Table7(rs),
		8:  Table8(rs),
		9:  Tables9and10(rs),
		10: Tables9and10(rs),
		11: Table11(rs),
		12: Table12(rs),
	}
	for n := 1; n <= MaxTable; n++ {
		got, err := RenderTableText(n, rs)
		if err != nil {
			t.Fatalf("RenderTableText(%d): %v", n, err)
		}
		if got != legacy[n] {
			t.Errorf("table %d: structured rendering differs from the legacy text", n)
		}
	}
	if _, err := RenderTableText(13, rs); err == nil {
		t.Error("RenderTableText(13) succeeded, want an error")
	}
}

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
