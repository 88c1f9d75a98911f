package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"testing"
	"time"
)

// benchmarkDef is the part of BENCHMARK.json the tests check.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func readBenchmarkDef(t *testing.T) benchmarkDef {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

func TestBenchmarkDefinitionMatchesHarness(t *testing.T) {
	def := readBenchmarkDef(t)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, def.Workloads[i].Name, def.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestSmoke runs every workload for about a second against a real
// spexd, untraced and traced, and checks that each run is correct and
// reports exactly the metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds spexd and runs every workload against it")
	}
	def := readBenchmarkDef(t)
	for _, trace := range []bool{false, true} {
		want := def.EndToEnd
		if trace {
			want = def.PerLayer
		}
		cfg := config{root: "../..", build: t.TempDir(), seed: 7, window: time.Second, trace: trace,
			workers: runtime.NumCPU()}
		results, err := runAll(context.Background(), cfg, "../expected.json", workloads, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads {
			r := results[w.name]
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("trace=%v %s: correct=%v attempted=%d failed=%d", trace, w.name, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("trace=%v %s: %d metrics, BENCHMARK.json names %d", trace, w.name, len(r.Metrics), len(want))
			}
			for _, b := range want {
				m, ok := r.Metrics[b.Name]
				if !ok || m.Unit != b.Unit {
					t.Errorf("trace=%v %s: metric %s = %+v, want unit %s", trace, w.name, b.Name, m, b.Unit)
				}
			}
		}
	}
}
