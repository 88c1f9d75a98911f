package report

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spex/internal/campaignstore"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from a storeless analysis")

// goldenDir holds the paper's output as spexeval prints it: one file per
// `spexeval -table N` (1-12) and `-figure N` (1-7). The daemon's
// /v1/tables/N?format=text serves the same bytes. Regenerate only with
// `go test ./internal/report -update`, and say why in CHANGES.md.
const goldenDir = "../../testdata/golden"

// renderGolden renders every golden file from results, keyed by file
// name, exactly as spexeval prints it (fmt.Println adds the newline).
func renderGolden(t *testing.T, results []*SystemResult) map[string]string {
	t.Helper()
	out := map[string]string{}
	for n := 1; n <= MaxTable; n++ {
		text, err := RenderTableText(n, results)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("table%02d.txt", n)] = text + "\n"
	}
	for n := 1; n <= MaxFigure; n++ {
		text, err := RenderFigureText(context.Background(), n, results)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("figure%02d.txt", n)] = text + "\n"
	}
	return out
}

// checkGolden byte-diffs every rendered file against its golden copy.
func checkGolden(t *testing.T, results []*SystemResult) {
	t.Helper()
	for name, got := range renderGolden(t, results) {
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatalf("%v (regenerate with: go test ./internal/report -update)", err)
		}
		if got != string(want) {
			t.Errorf("%s differs from the golden file:\n--- golden ---\n%s\n--- got ---\n%s", name, want, got)
		}
	}
}

// requireReplayed fails unless every system replayed its whole campaign
// from the store at zero fresh cost.
func requireReplayed(t *testing.T, results []*SystemResult) {
	t.Helper()
	for _, r := range results {
		c := r.Campaign
		if c.Replayed != len(c.Outcomes) || c.TotalSimCost != 0 {
			t.Errorf("%s: replayed %d of %d outcomes, fresh sim cost %d; want a 100%% replay",
				r.Sys.Name(), c.Replayed, len(c.Outcomes), c.TotalSimCost)
		}
	}
}

// TestGoldenOutput pins every table and figure to testdata/golden in
// every execution mode: storeless at two pool widths, a persisted run
// and its 100% replay, a two-shard campaign merged and replayed, and the
// read-only index replay of that merged store. Changing one byte of any
// golden file fails every mode.
func TestGoldenOutput(t *testing.T) {
	ctx := context.Background()
	analyze := func(t *testing.T, opts AnalyzeOptions) []*SystemResult {
		t.Helper()
		rs, err := AnalyzeAllContext(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, text := range renderGolden(t, analyze(t, AnalyzeOptions{Workers: 1})) {
			if err := os.WriteFile(filepath.Join(goldenDir, name), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkGolden(t, analyze(t, AnalyzeOptions{Workers: workers}))
		})
	}

	t.Run("state-then-replay", func(t *testing.T) {
		locks := lockedState(t, t.TempDir())
		checkGolden(t, analyze(t, AnalyzeOptions{State: locks}))
		rerun := analyze(t, AnalyzeOptions{State: locks})
		requireReplayed(t, rerun)
		checkGolden(t, rerun)
	})

	t.Run("shard-merge-replay", func(t *testing.T) {
		merged := shardedStore(t)
		replayed := analyze(t, AnalyzeOptions{Workers: 4, State: lockedState(t, merged)})
		requireReplayed(t, replayed)
		checkGolden(t, replayed)

		t.Run("index", func(t *testing.T) {
			store, err := campaignstore.Open(merged)
			if err != nil {
				t.Fatal(err)
			}
			indexed, err := ReplayFromIndex(ctx, store)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, indexed)
		})
	})
}
