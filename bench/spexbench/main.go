// Command spexbench is the repository's end-to-end benchmark. It builds
// ./cmd/spexd, starts it on a fresh state directory and a free loopback
// port, and drives it only through its public HTTP API with one of four
// workloads:
//
//	campaign-cold     closed loop, 1 client: all-systems jobs on new namespaces
//	campaign-warm     closed loop, 1 client: all-systems jobs on a complete store
//	read-mix          open loop, 100 req/s over 2 connections: the dashboard's
//	                  polls and drill-downs and report readers' table reads
//	read-under-write  the read mix at 50 req/s on 1 connection while a second
//	                  connection runs campaign-warm jobs, two a second
//
// Every operation is checked against the pinned output in
// bench/expected.json. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; with -trace 1
// the metrics are per layer instead of end to end, taken from spexd's
// own /metrics series, heap profile and job traces across a traced run,
// and from direct calls, each inside a span, to the layers spexd does
// not time itself.
//
// Usage, from the repository root (bench/run.sh sets up the build
// cache and calls the same flags):
//
//	bash bench/run.sh -workload campaign-cold -seed 1 -seconds 20 [-trace 1] [-out r.json]
//	bash bench/run.sh -workload all -seed 1 -out r.json
//	bash bench/run.sh -compare 'base/*.json' 'new/*.json'
//	bash bench/run.sh -record-expected
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"spex/internal/outcomeindex"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed for namespace names and the read-request sequence")
		seconds      = flag.Int("seconds", 20, "measured window per workload, after a warm-up of a fifth of it (at most 3s)")
		traceOn      = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		out          = flag.String("out", "", "also write the results, with run metadata, to this JSON file")
		root         = flag.String("root", ".", "repository root; binaries, run state and traces go to its .bench_build")
		record       = flag.Bool("record-expected", false, "derive the pinned output from a direct analysis and write it to bench/expected.json")
		compare      = flag.Bool("compare", false, "compare two result sets, given as file globs, against BENCHMARK.json's bounds")
	)
	flag.Parse()
	buildDir := filepath.Join(*root, ".bench_build")
	expPath := filepath.Join(*root, "bench", "expected.json")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "spexbench: -compare takes two result globs: base and new")
			return 2
		}
		ok, err := compareMain(os.Stdout, filepath.Join(*root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "spexbench: %v\n", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	case *record:
		dir, err := os.MkdirTemp(mkdir(buildDir), "record-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "spexbench: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		if err := recordExpected(ctx, expPath, dir); err != nil {
			fmt.Fprintf(os.Stderr, "spexbench: recording expected output: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "spexbench: wrote %s\n", expPath)
		return 0
	}

	var selected []workload
	if *workloadName == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*workloadName); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "spexbench: unknown workload %q\n", *workloadName)
		return 2
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "spexbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	cfg := config{root: *root, build: buildDir, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *traceOn == 1, workers: runtime.NumCPU()}
	results, err := runAll(ctx, cfg, expPath, selected, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexbench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := writeResults(*out, cfg, results); err != nil {
			fmt.Fprintf(os.Stderr, "spexbench: %v\n", err)
			return 1
		}
	}
	final := combine(results)
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

type config struct {
	root, build string
	seed        int64
	window      time.Duration
	trace       bool
	workers     int
}

// warmup is the discarded run before the measured window.
func (c config) warmup() time.Duration { return min(3*time.Second, c.window/5) }

// result is one workload's outcome, in the shape of the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runMeta describes the machine and settings of a run.
type runMeta struct {
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Workers    int    `json:"workers"`
}

func meta(cfg config) runMeta {
	return runMeta{Seed: cfg.seed, Seconds: int(cfg.window / time.Second), Trace: cfg.trace,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), Workers: cfg.workers}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runAll builds spexd once and runs each workload on its own daemon,
// printing each workload's metrics as it finishes.
func runAll(ctx context.Context, cfg config, expPath string, ws []workload, w io.Writer) (map[string]result, error) {
	exp, err := loadExpected(expPath)
	if err != nil {
		return nil, err
	}
	bin, err := buildSpexd(ctx, cfg.root, mkdir(filepath.Join(cfg.build, "bin")))
	if err != nil {
		return nil, err
	}
	m := meta(cfg)
	fmt.Fprintf(w, "spexbench: seed %d, %v window, %d workers, nproc %d, GOMAXPROCS %d, %s, %s\n",
		m.Seed, cfg.window, m.Workers, m.Nproc, m.GOMAXPROCS, m.GoVersion, m.CPU)
	results := map[string]result{}
	// The direct layer calls do not depend on the workload: a traced run
	// makes them once, with its first workload.
	var direct *directStats
	for _, wl := range ws {
		dir, err := os.MkdirTemp(mkdir(filepath.Join(cfg.build, "runs")), wl.name+"-")
		if err != nil {
			return nil, err
		}
		r := &runner{cfg: cfg, exp: exp, bin: bin, dir: dir, out: w}
		var res result
		if cfg.trace {
			res, direct, err = r.traced(ctx, wl, direct)
		} else {
			res, err = r.endToEnd(ctx, wl)
		}
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		results[wl.name] = res
	}
	return results, nil
}

func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at first use
	return dir
}

// combine folds per-workload results into the final line: one
// workload's result as is, several with metric names prefixed by their
// workload.
func combine(results map[string]result) result {
	if len(results) == 1 {
		for _, r := range results {
			return r
		}
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for name, r := range results {
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	return all
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Meta    runMeta           `json:"meta"`
	Results map[string]result `json:"results"`
}

func writeResults(path string, cfg config, results map[string]result) error {
	data, err := json.MarshalIndent(resultFile{Meta: meta(cfg), Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runner runs one workload in its own directory and counts the
// operations it checked.
type runner struct {
	cfg               config
	exp               *expected
	bin               string
	dir               string
	out               io.Writer
	attempted, failed int
}

// account counts samples and reports the first few failures.
func (r *runner) account(samples []sample) {
	for _, s := range samples {
		r.check(s.kind, s.err)
	}
}

func (r *runner) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "spexbench: %s failed: %v\n", what, err)
		}
	}
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// endToEnd measures one workload with tracing off: setup (repeated,
// keeping the last daemon), a discarded warm-up, then the window.
func (r *runner) endToEnd(ctx context.Context, w workload) (result, error) {
	var setups []float64
	var e *env
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			if err := e.d.stop(); err != nil {
				return result{}, err
			}
		}
		start := time.Now()
		ne, err := setupRun(ctx, r.bin, filepath.Join(r.dir, fmt.Sprint("setup", i)), r.exp, r.cfg.workers, r.cfg.seed)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
		e = ne
	}
	r.account(w.run(ctx, e, r.cfg.warmup()))

	cpu0, err := e.d.cpuTime()
	if err != nil {
		e.d.kill()
		return result{}, err
	}
	start := time.Now()
	samples := w.run(ctx, e, r.cfg.window)
	wall := time.Since(start)
	cpu1, err := e.d.cpuTime()
	if err != nil {
		e.d.kill()
		return result{}, err
	}
	rss, err := e.d.peakRSSMB()
	if err != nil {
		e.d.kill()
		return result{}, err
	}
	if err := e.d.stop(); err != nil {
		return result{}, err
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}
	r.account(samples)

	var lat []float64
	for _, s := range samples {
		if s.err == nil && isRead(s.kind) == w.reads {
			lat = append(lat, ms(s.latency()))
		}
	}
	if len(lat) == 0 {
		return result{}, errors.New("no operation completed in the window")
	}
	n := float64(len(lat))
	res := r.result(map[string]metric{
		"setup_s":       {median(setups), "s"},
		"op_p50_ms":     {median(lat), "ms"},
		"cpu_ms_per_op": {ms(cpu1-cpu0) / n, "ms"},
		"peak_rss_mb":   {rss, "MiB"},
	})
	r.print(w, res, map[string]string{
		"setup_s":       fmt.Sprintf("median of %d set-ups", len(setups)),
		"op_p50_ms":     fmt.Sprintf("n=%d", len(lat)),
		"cpu_ms_per_op": fmt.Sprintf("over %d ops", len(lat)),
	})
	// The tail and the rate are reported but not gated; bench/README.md
	// gives the reasons.
	q := tailQuantile(len(lat))
	fmt.Fprintf(r.out, "  %-34s %14.4f %-6s p%g of n=%d, %d beyond; not gated\n",
		"op_tail_ms", quantile(lat, q), "ms", q*100, len(lat), beyond(len(lat), q))
	fmt.Fprintf(r.out, "  %-34s %14.4f %-6s %d ops in %.3fs; not gated\n",
		"ops_per_s", n/wall.Seconds(), "1/s", len(lat), wall.Seconds())
	return res, nil
}

func (r *runner) result(m map[string]metric) result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// print writes one workload's metrics, one per line, sorted by name.
func (r *runner) print(w workload, res result, notes map[string]string) {
	fmt.Fprintf(r.out, "%s (%s): attempted %d, failed %d\n", w.name, w.why, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(r.out, "  %-34s %14.4f %-6s %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit, notes[k])
	}
}

// coverRounds is how many times a traced run sends every share of the
// read mix after the workload's own traffic.
const coverRounds = 4

// traced runs the workload's traffic once more on a daemon that serves
// its heap profile, then fixed reads and jobs that every traced run
// makes, and reads the daemon's own timers, counters and job traces
// across them. The direct layer calls run once per process: direct is
// their result if an earlier workload made them.
func (r *runner) traced(ctx context.Context, w workload, direct *directStats) (result, *directStats, error) {
	e, err := setupRun(ctx, r.bin, filepath.Join(r.dir, "setup"), r.exp, r.cfg.workers, r.cfg.seed, "-pprof")
	if err != nil {
		return result{}, direct, err
	}
	c := newClient(e.d.base, 1)
	defer c.close()
	r.account(w.run(ctx, e, r.cfg.warmup()))
	before, err := c.scrape(ctx)
	if err != nil {
		e.d.kill()
		return result{}, direct, err
	}
	phase := w.run(ctx, e, r.cfg.window)
	cover := e.coverReads(ctx, c, coverRounds)
	after, err := c.scrape(ctx)
	if err != nil {
		e.d.kill()
		return result{}, direct, err
	}
	jobs, err := e.traceJobs(ctx, c)
	if err != nil {
		e.d.kill()
		return result{}, direct, err
	}
	if err := e.d.stop(); err != nil {
		return result{}, direct, err
	}
	if err := ctx.Err(); err != nil {
		return result{}, direct, err
	}
	r.account(phase)
	r.account(cover)

	tr := newTracer()
	for _, s := range append(append([]sample(nil), phase...), cover...) {
		id := tr.add("http."+s.kind, 0, s.sent, s.done)
		if s.post > 0 {
			tr.add("http.post", id, s.sent, s.sent.Add(s.post))
		}
	}
	for _, j := range jobs {
		r.check("traced "+j.kind, j.err)
		id := tr.add("http.traced."+j.kind, 0, j.sent, j.done)
		tr.add("http.post", id, j.sent, j.sent.Add(j.post))
		tr.graft(id, j.trace)
	}
	if direct == nil {
		queries := make([]outcomeindex.Query, directQueries)
		for i := range queries {
			queries[i] = e.queryReq().query
		}
		direct, err = directPass(ctx, tr, r.exp, filepath.Join(e.d.state, e.pop), r.cfg.workers, queries)
		if err != nil {
			return result{}, nil, fmt.Errorf("direct layer calls: %w", err)
		}
	}

	res := r.result(perLayer(w, after.minus(before), phase, cover, jobs, direct, r.cfg.workers))
	r.print(w, res, nil)
	layers := tr.layerTimes()
	printLayers(r.out, layers, median(direct.overheadMs))
	path := filepath.Join(mkdir(filepath.Join(r.cfg.build, "traces")), fmt.Sprintf("%s-seed%d.json", w.name, r.cfg.seed))
	if err := writeTrace(path, meta(r.cfg), tr, layers); err != nil {
		return result{}, direct, err
	}
	fmt.Fprintf(r.out, "  spans written to %s\n", path)
	return res, direct, nil
}
