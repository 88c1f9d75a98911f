package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWorseByFollowsDirection(t *testing.T) {
	lower := bound{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := bound{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		b          bound
		base, next float64
		want       float64
	}{
		{lower, 100, 110, 0.10},
		{lower, 100, 90, -0.10},
		{higher, 100, 90, 0.10},
		{higher, 100, 110, -0.10},
	} {
		if got := worseBy(c.b, c.base, c.next); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("worseBy(%s, %v, %v) = %v, want %v", c.b.Better, c.base, c.next, got, c.want)
		}
	}
}

func TestCompareRowFlagsRegressionsAndMissingMetrics(t *testing.T) {
	bounds := []bound{
		{Name: "op_p50_ms", Better: "lower", Bound: 0.05},
		{Name: "ops_per_s", Better: "higher", Bound: 0.05},
	}
	base := map[string][]float64{"op_p50_ms": {100, 98, 102}, "ops_per_s": {10, 10, 10}}
	for _, c := range []struct {
		name string
		next map[string][]float64
		ok   bool
	}{
		{"within", map[string][]float64{"op_p50_ms": {104}, "ops_per_s": {9.6}}, true},
		{"slower", map[string][]float64{"op_p50_ms": {106}, "ops_per_s": {10}}, false},
		{"less throughput", map[string][]float64{"op_p50_ms": {100}, "ops_per_s": {9.4}}, false},
		{"missing", map[string][]float64{"op_p50_ms": {100}}, false},
	} {
		row, ok := compareRow(bounds, base, c.next)
		if ok != c.ok {
			t.Errorf("%s: ok = %v, want %v (row %q)", c.name, ok, c.ok, row)
		}
	}
}

// compareMain takes each side's median over the files its glob matches
// and prints one row per workload.
func TestCompareMainUsesMediansOfEachSet(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	writeJSON(t, bench, map[string]any{"end_to_end": []bound{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.05}}})
	write := func(name string, vals ...float64) {
		for i, v := range vals {
			writeJSON(t, filepath.Join(dir, name+string(rune('0'+i))+".json"), resultFile{Results: map[string]result{
				"read-mix": {Correct: true, Attempted: 1, Metrics: map[string]metric{"op_p50_ms": {v, "ms"}}},
			}})
		}
	}
	write("base", 100, 1000, 101) // median 101: one outlier does not move it
	write("same", 103, 104, 102)
	write("slow", 110, 108, 100)
	var out strings.Builder
	ok, err := compareMain(&out, bench, filepath.Join(dir, "base*.json"), filepath.Join(dir, "same*.json"))
	if err != nil || !ok {
		t.Fatalf("same: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "read-mix") {
		t.Errorf("no row for read-mix:\n%s", out.String())
	}
	ok, err = compareMain(io.Discard, bench, filepath.Join(dir, "base*.json"), filepath.Join(dir, "slow*.json"))
	if err != nil || ok {
		t.Fatalf("slow: ok=%v err=%v, want a regression", ok, err)
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
