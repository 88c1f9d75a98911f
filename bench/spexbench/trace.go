package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/obs"
	"spex/internal/outcomeindex"
	"spex/internal/report"
	"spex/internal/server"
	"spex/internal/shard"
	"spex/internal/spex"
	"spex/internal/targets"
)

// span is one timed call at a layer boundary. Start is relative to the
// tracer's origin; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps a run's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), Dur: end.Sub(start).Nanoseconds()})
	return id
}

// begin opens a span that end closes; children may name it as parent
// in between.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.Dur = time.Since(t.origin).Nanoseconds() - s.Start
	return time.Duration(s.Dur)
}

// call runs f as a child span of parent and returns its duration.
func (t *tracer) call(name string, parent int, f func() error) (time.Duration, error) {
	id := t.begin(name, parent)
	err := f()
	return t.end(id), err
}

// graft adds the daemon's span tree of one job under parent, naming
// each span "spexd.<kind>" (job, system, misconf).
func (t *tracer) graft(parent int, doc obs.TraceDoc) {
	ids := map[string]int{}
	for _, s := range doc.Spans { // parents precede their children
		p, ok := ids[s.Parent]
		if !ok {
			p = parent
		}
		ids[s.ID] = t.add("spexd."+s.Kind, p, s.Start, s.End)
	}
}

// layerTime summarises spans by name: how many, their total time, and
// their self time — each span's duration minus the part of it its
// children cover.
type layerTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

func (t *tracer) layerTimes() []layerTime {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.Start + s.Dur})
		}
	}
	by := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		lt.Count++
		lt.Total += ms(time.Duration(s.Dur))
		lt.Self += ms(time.Duration(s.Dur - covered(children[s.ID])))
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// tracedJob is one job of a traced run with what the daemon reported
// about it: its document, its span tree, the change in its /metrics
// series across the job, and the heap it allocated meanwhile.
type tracedJob struct {
	sample
	doc   server.Job
	trace obs.TraceDoc
	delta series
	alloc float64
}

// Jobs a traced run adds after the workload's traffic, of each kind.
const tracedJobs = 3

// traceJobs runs tracedJobs cold and then tracedJobs warm jobs one at a
// time on c, scraping /metrics and the heap profile before and after
// each and fetching its span tree, all outside the job's own timing.
func (e *env) traceJobs(ctx context.Context, c *client) ([]tracedJob, error) {
	var out []tracedJob
	for i := 0; i < 2*tracedJobs; i++ {
		warm := i >= tracedJobs
		ns := e.pop
		if !warm {
			ns = e.freshNamespace()
		}
		before, err := c.scrape(ctx)
		if err != nil {
			return out, err
		}
		alloc0, err := c.totalAlloc(ctx)
		if err != nil {
			return out, err
		}
		now := time.Now()
		tj := tracedJob{sample: sample{due: now, sent: now}}
		tj.doc = e.job(ctx, c, ns, warm, &tj.sample)
		if tj.err == nil {
			tj.err = e.measureJob(ctx, c, ns, &tj, before, alloc0)
		}
		out = append(out, tj)
	}
	return out, nil
}

func (e *env) measureJob(ctx context.Context, c *client, ns string, tj *tracedJob, before series, alloc0 float64) error {
	after, err := c.scrape(ctx)
	if err != nil {
		return err
	}
	alloc1, err := c.totalAlloc(ctx)
	if err != nil {
		return err
	}
	tj.delta, tj.alloc = after.minus(before), alloc1-alloc0
	tj.trace, err = c.jobTrace(ctx, ns, tj.doc.ID)
	return err
}

func (s series) minus(b series) series {
	d := series{}
	for k, v := range s {
		d[k] = v - b[k]
	}
	return d
}

// jobSpans splits a job's daemon trace: the job span's duration, the
// campaign's extent (first outcome's start to last outcome's end over
// every system span), and the durations of the outcomes that executed
// (replays carry no execution time).
func jobSpans(doc obs.TraceDoc) (job, run time.Duration, tasks []time.Duration) {
	var first, last time.Time
	for _, s := range doc.Spans {
		switch s.Kind {
		case obs.SpanJob:
			job = time.Duration(s.DurationNS)
		case obs.SpanSystem:
			if first.IsZero() || s.Start.Before(first) {
				first = s.Start
			}
			if s.End.After(last) {
				last = s.End
			}
		case obs.SpanMisconf:
			if s.Attrs["replayed"] != "true" {
				tasks = append(tasks, time.Duration(s.DurationNS))
			}
		}
	}
	return job, last.Sub(first), tasks
}

// directStats is what the direct layer calls measured.
type directStats struct {
	inferMs, buildMs                    []float64
	constraints, misconfs               int
	loadMs, queryUs, replayMs, renderMs []float64
	// Root minus children, the harness's own share of a direct round.
	overheadMs []float64
}

// Direct rounds a traced run makes, and the queries each answers.
const (
	directRounds  = 3
	directQueries = 10
)

// directPass calls, with a span around each call, the layers spexd
// does not time itself: inference and workload building as a job runs
// them, and the read path's index load, query, replay and rendering
// over the complete store in dir. Every rendered table is checked
// against its digest. The calls run in this process, whose smaller heap
// makes the collector run more often than in the daemon, so their
// times compare commits with each other, not with the daemon's.
func directPass(ctx context.Context, tr *tracer, exp *expected, dir string, workers int, queries []outcomeindex.Query) (*directStats, error) {
	store, err := campaignstore.Open(dir)
	if err != nil {
		return nil, err
	}
	systems := targets.All()
	ds := &directStats{}
	for i := 0; i < directRounds; i++ {
		root := tr.begin("direct.round", 0)
		var rs []*spex.Result
		infer, err := tr.call("spex.InferAll", root, func() (err error) {
			rs, err = spex.InferAll(ctx, systems, workers)
			return err
		})
		if err != nil {
			return nil, err
		}
		var ws []shard.Workload
		build, err := tr.call("shard.BuildWorkloads", root, func() (err error) {
			ws, _, err = shard.BuildWorkloads(systems, rs, shard.Plan{})
			return err
		})
		if err != nil {
			return nil, err
		}
		ds.inferMs = append(ds.inferMs, ms(infer))
		ds.buildMs = append(ds.buildMs, ms(build))
		ds.constraints, ds.misconfs = 0, 0
		for _, w := range ws {
			ds.constraints += w.Set.Len()
			ds.misconfs += len(w.Ms)
		}

		var idxs []*outcomeindex.System
		load, err := tr.call("campaignstore.LoadIndexAll", root, func() (err error) {
			idxs, err = store.LoadIndexAll()
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := checkIndexes(exp, idxs); err != nil {
			return nil, err
		}
		children := infer + build + load
		ds.loadMs = append(ds.loadMs, ms(load))
		for _, q := range queries {
			d, _ := tr.call("outcomeindex.Run", root, func() error {
				outcomeindex.Run(idxs, q)
				return nil
			})
			children += d
			ds.queryUs = append(ds.queryUs, us(d))
		}
		var results []*report.SystemResult
		replay, err := tr.call("report.ReplayFromIndex", root, func() (err error) {
			results, err = report.ReplayFromIndex(ctx, store)
			return err
		})
		if err != nil {
			return nil, err
		}
		children += replay
		ds.replayMs = append(ds.replayMs, ms(replay))
		for n := 1; n <= report.MaxTable; n++ {
			var text string
			d, err := tr.call("report.RenderTableText", root, func() (err error) {
				text, err = report.RenderTableText(n, results)
				return err
			})
			if err != nil {
				return nil, err
			}
			children += d
			ds.renderMs = append(ds.renderMs, ms(d))
			if err := exp.checkTable(n, []byte(text+"\n")); err != nil {
				return nil, err
			}
		}
		ds.overheadMs = append(ds.overheadMs, ms(tr.end(root)-children))
	}
	return ds, nil
}

// checkIndexes verifies a store's indexes against the pinned systems.
func checkIndexes(exp *expected, idxs []*outcomeindex.System) error {
	if len(idxs) != len(exp.Systems) {
		return fmt.Errorf("%d systems indexed, want %d", len(idxs), len(exp.Systems))
	}
	for _, idx := range idxs {
		want := exp.Systems[idx.System]
		if idx.Agg.Outcomes != want.Outcomes || idx.Fingerprint != want.Fingerprint {
			return fmt.Errorf("%s: %d outcomes fingerprint %s, want %d and %s",
				idx.System, idx.Agg.Outcomes, idx.Fingerprint, want.Outcomes, want.Fingerprint)
		}
	}
	return nil
}

// perLayer derives the per-layer metrics. window is the change in the
// daemon's /metrics series over the workload's traced traffic and the
// fixed reads after it; phase is that traffic as the harness saw it,
// cover the fixed reads, jobs the traced jobs, and ds the direct calls.
func perLayer(w workload, window series, phase, cover []sample, jobs []tracedJob, ds *directStats, workers int) map[string]metric {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

	var runMs, busyMs, util, alloc, fresh, simCost, taskUs, unattributed, events []float64
	var loadMs, saveMs, bytes, post, lockWait []float64
	replayed, outcomes := 0, 0
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		jobDur, run, tasks := jobSpans(j.trace)
		f, r, o, cost := 0, 0, 0, 0
		for _, s := range j.doc.Systems {
			f, r, o, cost = f+s.Executed, r+s.Replayed, o+s.Outcomes, cost+s.SimCost
		}
		load := 1000 * j.delta.sum("spex_store_load_seconds_sum")
		save := 1000 * j.delta.sum("spex_store_save_seconds_sum")
		post = append(post, 1000*j.delta[`spex_http_request_seconds_sum{endpoint="jobs_create"}`])
		lockWait = append(lockWait, 1000*j.delta.sum("spex_server_lock_wait_seconds_sum"))
		if j.kind == "job.warm" {
			loadMs = append(loadMs, load)
			saveMs = append(saveMs, save)
			bytes = append(bytes, j.delta.sum("spex_store_snapshot_bytes_sum"))
			replayed, outcomes = replayed+r, outcomes+o
			continue
		}
		var busy time.Duration
		for _, t := range tasks {
			busy += t
			taskUs = append(taskUs, us(t))
		}
		runMs = append(runMs, ms(run))
		busyMs = append(busyMs, ms(busy))
		util = append(util, busy.Seconds()/(run.Seconds()*float64(workers)))
		alloc = append(alloc, j.alloc/float64(max(f, 1)))
		fresh = append(fresh, float64(f))
		simCost = append(simCost, float64(cost))
		unattributed = append(unattributed, ms(jobDur-run)-load-save)
		events = append(events, float64(j.events))
	}
	set("shard.run_ms", "ms", median(runMs))
	set("inject.task_p50_us", "us", quantile(taskUs, 0.5))
	set("inject.task_p99_us", "us", quantile(taskUs, 0.99))
	set("inject.busy_ms", "ms", median(busyMs))
	set("engine.utilization", "share", median(util))
	set("inject.alloc_bytes_per_misconf", "bytes", median(alloc))
	set("inject.fresh", "count", median(fresh))
	set("inject.sim_cost", "count", median(simCost))
	set("campaignstore.load_ms", "ms", median(loadMs))
	set("campaignstore.save_ms", "ms", median(saveMs))
	set("campaignstore.snapshot_bytes", "bytes", median(bytes))
	set("campaignstore.replay_ratio", "share", float64(replayed)/float64(max(outcomes, 1)))
	set("server.post_ms", "ms", median(post))
	set("server.lock_wait_ms", "ms", median(lockWait))
	set("server.sse_events_per_job", "count", median(events))
	set("server.job_unattributed_ms", "ms", median(unattributed))

	for _, ep := range []string{"table", "query", "outcomes", "jobs_list", "ns_list"} {
		sum := window[`spex_http_request_seconds_sum{endpoint="`+ep+`"}`]
		n := window[`spex_http_request_seconds_count{endpoint="`+ep+`"}`]
		set("server."+ep+"_ms", "ms", 1000*sum/n)
	}
	hitRatio := func(hits, rebuilds string) float64 {
		h, r := window.sum(hits), window.sum(rebuilds)
		return h / (h + r)
	}
	set("server.tables_cache_hit_ratio", "share",
		hitRatio("spex_server_tables_cache_hits_total", "spex_server_tables_cache_rebuilds_total"))
	set("server.index_cache_hit_ratio", "share",
		hitRatio("spex_server_index_cache_hits_total", "spex_server_index_cache_rebuilds_total"))
	var scrape, lag []float64
	for i, s := range append(append([]sample(nil), phase...), cover...) {
		if s.err == nil && s.kind == "metrics" {
			scrape = append(scrape, ms(s.service()))
		}
		if i < len(phase) && s.err == nil && isRead(s.kind) == w.reads {
			lag = append(lag, ms(s.lag))
		}
	}
	set("server.metrics_ms", "ms", median(scrape))
	set("loadgen.lag_p99_ms", "ms", quantile(lag, 0.99))

	set("spex.infer_ms", "ms", median(ds.inferMs))
	set("spex.constraints", "count", float64(ds.constraints))
	set("confgen.build_ms", "ms", median(ds.buildMs))
	set("confgen.misconfs", "count", float64(ds.misconfs))
	set("outcomeindex.load_ms", "ms", median(ds.loadMs))
	set("outcomeindex.query_us", "us", median(ds.queryUs))
	set("report.replay_index_ms", "ms", median(ds.replayMs))
	set("report.render_ms", "ms", median(ds.renderMs))
	return m
}

// writeTrace saves the spans and their per-layer summary as JSON.
func writeTrace(path string, meta runMeta, tr *tracer, layers []layerTime) error {
	data, err := json.Marshal(map[string]any{"meta": meta, "layers": layers, "spans": tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printLayers prints the self-time table, largest first.
func printLayers(w io.Writer, layers []layerTime, overheadMs float64) {
	fmt.Fprintf(w, "  %-30s %7s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, lt := range layers {
		fmt.Fprintf(w, "  %-30s %7d %12.3f %12.3f\n", lt.Name, lt.Count, lt.Total, lt.Self)
	}
	fmt.Fprintf(w, "  tracing overhead per direct round (root minus children): %.3f ms\n", overheadMs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
