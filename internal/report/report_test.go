package report

import (
	"context"
	"strings"
	"testing"

	"spex/internal/campaignstore"
	"spex/internal/inject"
	"spex/internal/shard"
	"spex/internal/spex"
	"spex/internal/targets"
)

// lockedState opens dir as a campaign store and holds its writer lock
// for the remainder of the test — the handle AnalyzeOptions.State needs.
func lockedState(t *testing.T, dir string) *campaignstore.LockSet {
	t.Helper()
	store, err := campaignstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lk, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := lk.Unlock(); err != nil {
			t.Error(err)
		}
	})
	return lk.Set()
}

// analyzeAllOnce caches the expensive full analysis across tests.
var cachedResults []*SystemResult

func allResults(t *testing.T) []*SystemResult {
	t.Helper()
	if cachedResults == nil {
		rs, err := AnalyzeAllContext(context.Background(), AnalyzeOptions{})
		if err != nil {
			t.Fatalf("AnalyzeAllContext: %v", err)
		}
		cachedResults = rs
	}
	return cachedResults
}

func TestAllTablesRender(t *testing.T) {
	rs := allResults(t)
	tables := map[string]string{
		"Table 1":  Table1(rs),
		"Table 2":  Table2(),
		"Table 3":  Table3(rs),
		"Table 4":  Table4(rs),
		"Table 5":  Table5(rs),
		"Table 6":  Table6(rs),
		"Table 7":  Table7(rs),
		"Table 8":  Table8(rs),
		"Table 9":  Tables9and10(rs),
		"Table 11": Table11(rs),
		"Table 12": Table12(rs),
	}
	for name, text := range tables {
		if !strings.Contains(text, "===") || len(text) < 80 {
			t.Errorf("%s rendered suspiciously small:\n%s", name, text)
		}
	}
	// Every system appears in Table 5.
	t5 := tables["Table 5"]
	for _, sys := range []string{"Storage-A", "httpd", "mydb", "pgdb", "ldapd", "ftpd", "proxyd"} {
		if !strings.Contains(t5, sys) {
			t.Errorf("Table 5 is missing system %s", sys)
		}
	}
}

func TestFiguresRender(t *testing.T) {
	rs := allResults(t)
	f1, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f1, "functional failure") {
		t.Errorf("Figure 1 should show a functional failure (share not recognized):\n%s", f1)
	}
	f2, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f2, "CRASH") {
		t.Errorf("Figure 2 should show a crash:\n%s", f2)
	}
	f3 := Figure3(rs)
	for _, want := range []string{"int32", "FILE", "PORT", "fsync", "ft_min_word_len"} {
		if !strings.Contains(f3, want) {
			t.Errorf("Figure 3 missing %q:\n%s", want, f3)
		}
	}
	f5, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f5, "Figure 5(f)") {
		t.Errorf("Figure 5 incomplete:\n%s", f5)
	}
	f7, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CRASH", "scoreboard", "silently changed"} {
		if !strings.Contains(f7, want) {
			t.Errorf("Figure 7 missing %q:\n%s", want, f7)
		}
	}
}

func TestTable5ShapeHolds(t *testing.T) {
	rs := allResults(t)
	text := Table5(rs)
	// The totals row must show silent violation as the dominant
	// vulnerability category, as in the paper.
	if !strings.Contains(text, "Total") {
		t.Fatalf("no totals row:\n%s", text)
	}
	var totals map[string]int = map[string]int{}
	for _, r := range rs {
		for k, v := range r.Campaign.CountByReaction() {
			totals[k.String()] += v
		}
	}
	sv := totals["silent violation"]
	for _, other := range []string{"crash/hang", "early termination", "functional failure"} {
		if sv <= totals[other] {
			t.Errorf("silent violation (%d) should dominate %s (%d)", sv, other, totals[other])
		}
	}
}

func TestConstraintDump(t *testing.T) {
	rs := allResults(t)
	dump := ConstraintDump(rs[0])
	if !strings.Contains(dump, "constraints inferred for") {
		t.Errorf("malformed dump header:\n%.200s", dump)
	}
	if strings.Count(dump, "\n") < 20 {
		t.Errorf("dump suspiciously short:\n%s", dump)
	}
}

func TestTable11TotalsConsistent(t *testing.T) {
	rs := allResults(t)
	text := Table11(rs)
	if !strings.Contains(text, "| 3800") {
		t.Errorf("Table 11 must carry the paper's 3800 total:\n%s", text)
	}
	// Every system's basic-type count equals its parameter count.
	for _, r := range rs {
		c := r.Inference.Set.CountByKind()
		if c[0] != r.Inference.Params { // KindBasicType == 0
			t.Errorf("%s: basic types %d != params %d", r.Sys.Name(), c[0], r.Inference.Params)
		}
	}
}

// shardedStore campaigns every system as a two-way split, each shard in
// its own directory — what `spexinj -all -shard i/2 -state dir` runs:
// inference, BuildWorkloads under the plan, one CampaignAll — and
// merges the shards into a fresh store, whose directory it returns.
func shardedStore(t *testing.T) string {
	t.Helper()
	ctx := context.Background()
	systems := targets.All()
	rs, err := spex.InferAll(ctx, systems, 4)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for i := 1; i <= 2; i++ {
		plan := shard.Plan{Shard: i, Of: 2}
		ws, _, err := shard.BuildWorkloads(systems, rs, plan)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		runs, err := shard.CampaignAll(ctx, lockedState(t, dir), ws, shard.Options{Workers: 4, Inject: inject.DefaultOptions()})
		if err != nil {
			t.Fatalf("shard %s: %v", plan, err)
		}
		for _, run := range runs {
			if run.Err != nil {
				t.Fatalf("shard %s: %s snapshot not saved: %v", plan, run.Sys.Name(), run.Err)
			}
		}
		dirs = append(dirs, dir)
	}
	merged := t.TempDir()
	store, err := campaignstore.Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	lk, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	_, mergeErr := shard.Merge(lk.Set(), dirs)
	if err := lk.Unlock(); err != nil {
		t.Fatal(err)
	}
	if mergeErr != nil {
		t.Fatal(mergeErr)
	}
	return merged
}

// TestShardedAnalysisMergesIdentical: the distributed table pipeline —
// every system campaigned as two shards, merged, then replayed — must
// render Table 5 (the campaign-derived table) byte-identical to the
// unsharded analysis, and the merged replay must execute nothing fresh.
func TestShardedAnalysisMergesIdentical(t *testing.T) {
	want := Table5(allResults(t))
	got, err := AnalyzeAllContext(context.Background(), AnalyzeOptions{Workers: 4, State: lockedState(t, shardedStore(t))})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.Campaign.Replayed != len(r.Campaign.Outcomes) {
			t.Errorf("%s: merged replay executed fresh work (replayed %d of %d)",
				r.Sys.Name(), r.Campaign.Replayed, len(r.Campaign.Outcomes))
		}
	}
	if table := Table5(got); table != want {
		t.Errorf("Table 5 from the merged store differs from the unsharded render:\n--- unsharded ---\n%s\n--- merged ---\n%s", want, table)
	}
}
