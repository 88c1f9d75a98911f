// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4), plus ablations of three design decisions: the MAY-belief
// confidence threshold, the value-relationship hop budget, and the
// injection-campaign optimizations.
package spex_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"spex/internal/annot"
	"spex/internal/apispec"
	"spex/internal/casedb"
	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/designcheck"
	"spex/internal/engine"
	"spex/internal/frontend"
	"spex/internal/inject"
	"spex/internal/mapping"
	"spex/internal/report"
	"spex/internal/shard"
	"spex/internal/sim"
	"spex/internal/spex"
	"spex/internal/targets"
	"spex/internal/targets/ftpd"
	"spex/internal/targets/minicorpus"
	"spex/internal/targets/mydb"
)

var (
	analyzeOnce sync.Once
	allResults  []*report.SystemResult
	analyzeErr  error
)

func analyzed(b *testing.B) []*report.SystemResult {
	b.Helper()
	analyzeOnce.Do(func() {
		allResults, analyzeErr = report.AnalyzeAllContext(context.Background(), report.AnalyzeOptions{})
	})
	if analyzeErr != nil {
		b.Fatal(analyzeErr)
	}
	return allResults
}

func inferred(b *testing.B, name string) *spex.Result {
	b.Helper()
	for _, r := range analyzed(b) {
		if r.Sys.Name() == name {
			return r.Inference
		}
	}
	b.Fatalf("system %s not analyzed", name)
	return nil
}

// BenchmarkTable1MappingSurvey extracts mapping pairs for all 11 surveyed
// snippets (Table 1).
func BenchmarkTable1MappingSurvey(b *testing.B) {
	projects := minicorpus.Projects()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range projects {
			proj, err := frontend.Parse(p.Name, p.Sources)
			if err != nil {
				b.Fatal(err)
			}
			af, err := annot.Parse(p.Annotations)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mapping.Extract(proj, af); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2Generation generates misconfigurations for every inferred
// constraint of mydb (Table 2's rules exercised end to end).
func BenchmarkTable2Generation(b *testing.B) {
	res := inferred(b, "mydb")
	tmpl, err := conffile.Parse(mydb.New().DefaultConfig(), conffile.SyntaxEquals)
	if err != nil {
		b.Fatal(err)
	}
	reg := confgen.NewRegistry()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ms := reg.Generate(res.Set, tmpl)
		if len(ms) == 0 {
			b.Fatal("no misconfigurations")
		}
	}
}

// BenchmarkTable3Classification classifies one injected misconfiguration
// through boot + tests (Table 3's taxonomy exercised).
func BenchmarkTable3Classification(b *testing.B) {
	res := inferred(b, "mydb")
	sys := mydb.New()
	tmpl, _ := conffile.Parse(sys.DefaultConfig(), conffile.SyntaxEquals)
	ms := confgen.NewRegistry().Generate(res.Set, tmpl)
	one := ms[:1]
	opts := inject.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inject.RunContext(context.Background(), sys, one, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Inventory parses every target corpus and counts LoC,
// parameters, and annotation lines (Table 4).
func BenchmarkTable4Inventory(b *testing.B) {
	systems := targets.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, sys := range systems {
			if _, err := frontend.Parse(sys.Name(), sys.Sources()); err != nil {
				b.Fatal(err)
			}
			if _, err := annot.Parse(sys.Annotations()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable5Campaign runs mydb's full injection campaign (Table 5).
func BenchmarkTable5Campaign(b *testing.B) {
	res := inferred(b, "mydb")
	sys := mydb.New()
	tmpl, _ := conffile.Parse(sys.DefaultConfig(), conffile.SyntaxEquals)
	ms := confgen.NewRegistry().Generate(res.Set, tmpl)
	opts := inject.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := inject.RunContext(context.Background(), sys, ms, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Vulnerabilities()) == 0 {
			b.Fatal("campaign exposed nothing")
		}
	}
}

// BenchmarkCampaignParallel runs the Table 5 workload (mydb's full
// injection campaign) through the campaign scheduler (shard.CampaignAll)
// at several pool widths, tracking the concurrent campaign engine's
// speedup in the perf trajectory. SimCostDelay gives the campaign the
// paper's cost shape — booting the target once per misconfiguration
// dominates (§3.1), which the hermetic simulation otherwise collapses to
// microseconds — so the scheduler's overlap is what the benchmark
// measures. Outcomes are order-deterministic, so every width produces
// the identical report.
func BenchmarkCampaignParallel(b *testing.B) {
	res := inferred(b, "mydb")
	sys := mydb.New()
	tmpl, _ := conffile.Parse(sys.DefaultConfig(), conffile.SyntaxEquals)
	ws := []shard.Workload{{Sys: sys, Set: res.Set, Ms: confgen.NewRegistry().Generate(res.Set, tmpl)}}
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := inject.DefaultOptions()
			opts.SimCostDelay = 200 * time.Microsecond
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runs, err := shard.CampaignAll(context.Background(), nil, ws,
					shard.Options{Workers: workers, Inject: opts})
				if err != nil {
					b.Fatal(err)
				}
				if len(runs[0].Report.Vulnerabilities()) == 0 {
					b.Fatal("campaign exposed nothing")
				}
			}
		})
	}
}

// BenchmarkGlobalScheduler compares the two -all scheduling shapes over
// the full seven-target injection workload with the paper's
// boot-dominated cost shape (SimCostDelay, as in
// BenchmarkCampaignParallel): "per-target" fans the systems out on the
// pool with each campaign sequential inside (the pre-shard spexinj
// -all), "global" flattens every system's misconfigurations into one
// round-robin interleaved queue (internal/shard). Per-target wall-clock
// is bounded below by the single largest campaign — once the small
// targets drain, workers idle; global keeps the pool busy until the
// whole queue drains. The utilization metric is busy time over pool
// capacity (1.0 = no idle workers); the reports are identical either
// way, so utilization is the entire difference.
func BenchmarkGlobalScheduler(b *testing.B) {
	rs := analyzed(b)
	ws := make([]shard.Workload, 0, len(rs))
	for _, r := range rs {
		tmpl, err := conffile.Parse(r.Sys.DefaultConfig(), r.Sys.Syntax())
		if err != nil {
			b.Fatal(err)
		}
		ms := confgen.NewRegistry().Generate(r.Inference.Set, tmpl)
		ws = append(ws, shard.Workload{Sys: r.Sys, Set: r.Inference.Set, Ms: ms})
	}
	const workers = 4
	const delay = 200 * time.Microsecond
	utilization := func(cost int, elapsed time.Duration) float64 {
		busy := time.Duration(cost) * delay
		return busy.Seconds() / (elapsed.Seconds() * workers)
	}

	b.Run("per-target", func(b *testing.B) {
		opts := inject.DefaultOptions()
		opts.SimCostDelay = delay
		cost := 0
		start := time.Now()
		for i := 0; i < b.N; i++ {
			results, _ := engine.Run(context.Background(), len(ws), workers,
				func(ctx context.Context, j int) (*inject.Report, error) {
					runs, err := shard.CampaignAll(ctx, nil, ws[j:j+1],
						shard.Options{Workers: 1, Inject: opts})
					return runs[0].Report, err
				})
			if err := engine.FirstError(results); err != nil {
				b.Fatal(err)
			}
			cost = 0
			for _, r := range results {
				cost += r.Value.TotalSimCost
			}
		}
		b.ReportMetric(utilization(cost*b.N, time.Since(start)), "utilization")
	})
	b.Run("global", func(b *testing.B) {
		opts := inject.DefaultOptions()
		opts.SimCostDelay = delay
		cost := 0
		start := time.Now()
		for i := 0; i < b.N; i++ {
			runs, err := shard.CampaignAll(context.Background(), nil, ws,
				shard.Options{Workers: workers, Inject: opts})
			if err != nil {
				b.Fatal(err)
			}
			cost = 0
			for _, run := range runs {
				cost += run.Report.TotalSimCost
			}
		}
		b.ReportMetric(utilization(cost*b.N, time.Since(start)), "utilization")
	})
}

// BenchmarkAnalyzeAllParallel runs the full seven-system evaluation
// pipeline at several fan-out widths (the spexeval hot path).
func BenchmarkAnalyzeAllParallel(b *testing.B) {
	for _, workers := range []int{1, 7} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs, err := report.AnalyzeAllContext(context.Background(),
					report.AnalyzeOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(rs) != 7 {
					b.Fatal("missing systems")
				}
			}
		})
	}
}

// BenchmarkTable6CaseSensitivity, Table7Units, Table8ErrorProne run the
// design audit over every analyzed system (Tables 6-8 derive from it).
func BenchmarkTable6CaseSensitivity(b *testing.B) {
	rs := analyzed(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rs {
			a := designcheck.Run(r.Inference)
			_ = a.CaseSensitive
		}
	}
}

func BenchmarkTable7Units(b *testing.B) {
	rs := analyzed(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rs {
			a := designcheck.Run(r.Inference)
			_ = a.SizeUnits
		}
	}
}

func BenchmarkTable8ErrorProne(b *testing.B) {
	rs := analyzed(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rs {
			a := designcheck.Run(r.Inference)
			_ = a.SilentOverruling + a.UnsafeTransform
		}
	}
}

// BenchmarkTable9CaseStudy generates and classifies the four historical
// case populations (Tables 9-10).
func BenchmarkTable9CaseStudy(b *testing.B) {
	res := inferred(b, "mydb")
	spec := casedb.PaperSpecs()[2] // mydb
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cases := casedb.Generate(spec, res.Set)
		st := casedb.Run(spec.System, cases, res.Set)
		if st.Total() != spec.Total() {
			b.Fatal("population mismatch")
		}
	}
}

func BenchmarkTable10Breakdown(b *testing.B) {
	res := inferred(b, "mydb")
	spec := casedb.PaperSpecs()[2]
	cases := casedb.Generate(spec, res.Set)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := casedb.Run(spec.System, cases, res.Set)
		_ = st.Count(casedb.CategoryCrossSW)
	}
}

// BenchmarkTable11Inference runs the full constraint-inference pipeline for
// one target (Table 11).
func BenchmarkTable11Inference(b *testing.B) {
	sys := mydb.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := spex.InferSystem(sys)
		if err != nil {
			b.Fatal(err)
		}
		if res.Set.Len() == 0 {
			b.Fatal("no constraints")
		}
	}
}

// BenchmarkTable12Accuracy scores inference against ground truth.
func BenchmarkTable12Accuracy(b *testing.B) {
	res := inferred(b, "mydb")
	gt := mydb.New().GroundTruth()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := spex.Score(res.Set, gt)
		if len(acc) == 0 {
			b.Fatal("no accuracy data")
		}
	}
}

// BenchmarkFigure3Examples renders the per-kind constraint examples.
func BenchmarkFigure3Examples(b *testing.B) {
	rs := analyzed(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := report.Figure3(rs); len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure5Injections reruns the six rule-by-rule injections.
func BenchmarkFigure5Injections(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Figure5(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7Vulnerabilities reruns the five category examples.
func BenchmarkFigure7Vulnerabilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Figure7(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationConfidenceThreshold sweeps the MAY-belief threshold
// (paper §2.2.4, default 0.75) over ftpd — the system with the
// listen/listen_ipv6 false-positive pattern — and reports control-dep
// precision/recall per setting.
func BenchmarkAblationConfidenceThreshold(b *testing.B) {
	sys := ftpd.New()
	gt := sys.GroundTruth()
	for _, th := range []float64{0.10, 0.50, 0.75, 1.0} {
		th := th
		b.Run(benchName("threshold", th), func(b *testing.B) {
			var prec, rec float64
			for i := 0; i < b.N; i++ {
				res, err := spex.Infer(sys.Name(), sys.Sources(), sys.Annotations(),
					sys.Manual(), mustDB(sys), spex.Options{DepConfidence: th, MaxRelHops: 1})
				if err != nil {
					b.Fatal(err)
				}
				acc := spex.Score(res.Set, gt)[constraint.KindControlDep]
				recall := spex.Recall(res.Set, gt)[constraint.KindControlDep]
				prec = acc.Ratio()
				rec = recall.Ratio()
			}
			if prec >= 0 {
				b.ReportMetric(prec, "precision")
			}
			if rec >= 0 {
				b.ReportMetric(rec, "recall")
			}
		})
	}
}

// BenchmarkAblationRelHops sweeps the value-relationship transitivity
// budget (paper §2.2.5, default 1 intermediate variable).
func BenchmarkAblationRelHops(b *testing.B) {
	sys := mydb.New()
	for _, hops := range []int{1, 2, 4} {
		hops := hops
		b.Run(benchName("hops", float64(hops)), func(b *testing.B) {
			var count int
			for i := 0; i < b.N; i++ {
				res, err := spex.Infer(sys.Name(), sys.Sources(), sys.Annotations(),
					sys.Manual(), mustDB(sys), spex.Options{DepConfidence: 0.75, MaxRelHops: hops})
				if err != nil {
					b.Fatal(err)
				}
				count = len(res.Set.ByKind(constraint.KindValueRel))
			}
			b.ReportMetric(float64(count), "relationships")
		})
	}
}

// BenchmarkAblationCampaignOptimizations measures the simulated campaign
// cost with and without the paper's two optimizations (§3.1: shortest test
// first, stop at first failure — "under 10 hours" on the real systems).
func BenchmarkAblationCampaignOptimizations(b *testing.B) {
	res := inferred(b, "Storage-A")
	sys := targets.ByName("Storage-A")
	tmpl, _ := conffile.Parse(sys.DefaultConfig(), conffile.SyntaxEquals)
	ms := confgen.NewRegistry().Generate(res.Set, tmpl)
	for _, optimized := range []bool{true, false} {
		optimized := optimized
		name := "optimized"
		if !optimized {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			opts := inject.DefaultOptions()
			opts.SortTests = optimized
			opts.StopOnFirstFailure = optimized
			var cost int
			for i := 0; i < b.N; i++ {
				rep, err := inject.RunContext(context.Background(), sys, ms, opts)
				if err != nil {
					b.Fatal(err)
				}
				cost = rep.TotalSimCost
			}
			b.ReportMetric(float64(cost), "sim-cost")
		})
	}
}

func benchName(prefix string, v float64) string {
	return fmt.Sprintf("%s=%v", prefix, v)
}

// mustDB builds the knowledge base for a system, importing proprietary
// APIs when the target ships them.
func mustDB(sys sim.System) *apispec.DB {
	db := apispec.New()
	if imp, ok := sys.(spex.APIImporter); ok {
		imp.ImportAPIs(db)
	}
	return db
}
