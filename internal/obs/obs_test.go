package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(3)
	g.Add(-1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("histogram count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.565) > 1e-9 {
		t.Fatalf("histogram sum = %v, want 5.565", h.Sum())
	}
	// Bucket placement: le=0.01 catches 0.005 and the boundary value
	// 0.01 (le is inclusive), le=0.1 catches 0.05, le=1 catches 0.5,
	// +Inf catches 5.
	for i, want := range []uint64{2, 1, 1, 1} {
		if got := h.buckets[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_requests_total", "requests", "endpoint", "code")
	v.With("jobs", "200").Inc()
	v.With("jobs", "200").Inc()
	v.With("jobs", "404").Inc()
	if got := v.With("jobs", "200").Value(); got != 2 {
		t.Fatalf("child(jobs,200) = %d, want 2", got)
	}
	if got := v.With("jobs", "404").Value(); got != 1 {
		t.Fatalf("child(jobs,404) = %d, want 1", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("test_dup_total", "second")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("bad name", "spaces are not allowed")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_b_total", "b counter").Add(7)
	r.Gauge("test_a_depth", "a gauge").Set(2.5)
	h := r.Histogram("test_c_seconds", "c histogram", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	v := r.CounterVec("test_d_total", "labelled", "kind")
	v.With("x\"y\\z\n").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_a_depth a gauge",
		"# TYPE test_a_depth gauge",
		"test_a_depth 2.5",
		"# TYPE test_b_total counter",
		"test_b_total 7",
		"# TYPE test_c_seconds histogram",
		`test_c_seconds_bucket{le="0.1"} 1`,
		`test_c_seconds_bucket{le="1"} 2`,
		`test_c_seconds_bucket{le="+Inf"} 3`,
		"test_c_seconds_sum 2.55",
		"test_c_seconds_count 3",
		`test_d_total{kind="x\"y\\z\n"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families come out sorted.
	if strings.Index(out, "test_a_depth") > strings.Index(out, "test_b_total") {
		t.Error("families not sorted by name")
	}
}

func TestWriteJSONFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ops_total", "ops").Add(3)
	h := r.Histogram("test_lat_seconds", "lat", []float64{1})
	h.Observe(0.5)
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := r.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc []struct {
		Name   string            `json:"name"`
		Type   string            `json:"type"`
		Series []json.RawMessage `json:"series"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("metrics dump is not JSON: %v\n%s", err, raw)
	}
	if len(doc) != 2 || doc[0].Name != "test_lat_seconds" || doc[1].Name != "test_ops_total" {
		t.Fatalf("unexpected dump shape: %+v", doc)
	}
	for _, f := range doc {
		if len(f.Series) != 1 {
			t.Fatalf("family %s has %d series, want 1", f.Name, len(f.Series))
		}
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines
// under -race: counters, gauges, histogram observations, vec children
// creation, and concurrent exposition must all be safe.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_hammer_total", "hammer")
	g := r.Gauge("test_hammer_depth", "hammer")
	h := r.Histogram("test_hammer_seconds", "hammer", DurationBuckets)
	v := r.CounterVec("test_hammer_kinds_total", "hammer", "kind")
	kinds := []string{"a", "b", "c", "d"}
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i) / 1e6)
				v.With(kinds[(w+i)%len(kinds)]).Inc()
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	var total uint64
	for _, k := range kinds {
		total += v.With(k).Value()
	}
	if total != workers*iters {
		t.Fatalf("vec total = %d, want %d", total, workers*iters)
	}
}

func TestTraceTree(t *testing.T) {
	tr := NewTrace("job-000001")
	ctx, job := tr.Start(context.Background(), SpanJob, "job-000001")
	sctx, sys := Start(ctx, SpanSystem, "proxyd")
	_, mc := Start(sctx, SpanMisconf, "max_connections=0")
	mc.End("failed")
	_, steal := Start(ctx, SpanSteal, "worker 2 <- worker 1")
	steal.SetAttr("keys", "5")
	steal.End("ok")
	sys.End("done")
	job.End("done")

	doc := tr.Doc()
	if doc.Job != "job-000001" || len(doc.Spans) != 4 {
		t.Fatalf("doc: %+v", doc)
	}
	if doc.Spans[0].ID != "s1" || doc.Spans[1].Parent != "s1" || doc.Spans[2].Parent != "s2" {
		t.Fatalf("span IDs/parents wrong: %+v", doc.Spans)
	}
	for _, sp := range doc.Spans {
		if sp.End.Before(sp.Start) || sp.DurationNS != sp.End.Sub(sp.Start).Nanoseconds() {
			t.Fatalf("span %s: [%v, %v], duration %d", sp.ID, sp.Start, sp.End, sp.DurationNS)
		}
	}
	if doc.Spans[0].Start.After(doc.Spans[1].Start) || doc.Spans[2].End.After(doc.Spans[1].End) {
		t.Fatalf("a child lies outside its parent: %+v", doc.Spans)
	}

	text := doc.Text()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("text rendering has %d lines:\n%s", len(lines), text)
	}
	if !strings.HasPrefix(lines[0], "job job-000001 ") {
		t.Errorf("root line: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  system proxyd ") {
		t.Errorf("system line: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    misconf max_connections=0 ") || !strings.HasSuffix(lines[2], " failed") {
		t.Errorf("misconf line: %q", lines[2])
	}
	if !strings.Contains(lines[3], "keys=5") {
		t.Errorf("steal line lost its attrs: %q", lines[3])
	}

	// The serialized document round-trips and keeps its top-level
	// "job" key (the journal loader's discriminator).
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"job":"job-000001"`) {
		t.Fatalf("doc JSON missing job key: %s", raw)
	}
}

// TestSpanChildCap: a span records maxChildren children; the rest are
// counted in its dropped attribute, and a dropped span's descendants
// record nothing.
func TestSpanChildCap(t *testing.T) {
	tr := NewTrace("job-000001")
	ctx, job := tr.Start(context.Background(), SpanJob, "job-000001")
	sctx, sys := Start(ctx, SpanSystem, "proxyd")
	for i := range maxChildren {
		_, mc := sys.Start(sctx, SpanMisconf, fmt.Sprintf("m%d", i))
		if mc == nil {
			t.Fatalf("child %d dropped, want %d kept", i+1, maxChildren)
		}
		mc.End("ok")
	}
	dctx, dropped := sys.Start(sctx, SpanMisconf, "one too many")
	if dropped != nil {
		t.Fatalf("child %d kept, want it dropped", maxChildren+1)
	}
	dropped.SetAttr("k", "v")
	dropped.End("ok")
	if _, s := Start(dctx, SpanMisconf, "under a dropped span"); s != nil {
		t.Fatal("a dropped span's child was recorded")
	}
	if _, s := Start(dctx, SpanSystem, "also under it"); s != nil {
		t.Fatal("a dropped span's child was recorded")
	}
	sys.End("ok")
	job.End("done")

	doc := tr.Doc()
	if len(doc.Spans) != 2+maxChildren {
		t.Fatalf("trace holds %d spans, want %d", len(doc.Spans), 2+maxChildren)
	}
	if got := doc.Spans[1].Attrs["dropped"]; got != "1" {
		t.Fatalf("system span dropped = %q, want 1", got)
	}
	if _, ok := doc.Spans[0].Attrs["dropped"]; ok {
		t.Fatalf("job span counts drops it never had: %v", doc.Spans[0].Attrs)
	}
}

// TestStartWithoutSpanAllocatesNothing: the campaign path opens spans
// on every ctx, traced or not, so an untraced one must cost nothing.
func TestStartWithoutSpanAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		sctx, sys := Start(ctx, SpanSystem, "proxyd")
		sys.SetAttr("replayed", "0")
		_, mc := sys.Start(sctx, SpanMisconf, "max_connections=0")
		mc.End("ok")
		sys.End("ok")
	})
	if allocs != 0 {
		t.Fatalf("Start on a ctx without a span allocates %v times, want 0", allocs)
	}
}
