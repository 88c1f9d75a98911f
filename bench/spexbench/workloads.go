package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/outcomeindex"
	"spex/internal/report"
	"spex/internal/server"
)

// workload is one traffic mix against a live spexd.
type workload struct {
	name, why string
	// reads reports whether the workload's operation — the one its
	// end-to-end metrics time — is a read rather than a campaign job.
	reads bool
	run   func(ctx context.Context, e *env, d time.Duration) []sample
}

// Load levels. No usage data exists for spexd, so these are assumptions,
// fixed here so every commit gets the same load. The read rates leave
// the daemon of the 2-vCPU reference machine mostly idle: at three times
// the read-mix rate its queue grew without bound in half the runs of a
// set that met a slow spell of the host, and latency then measured the
// backlog rather than the read path. The writer runs at a fifth of what
// it could do back to back.
const (
	readMixRate        = 100 // requests per second over 2 connections
	readUnderWriteRate = 50  // requests per second over 1 connection
	// writerPeriod paces read-under-write's warm jobs to two a second,
	// so a run does a fixed amount of write work and the writer's cost
	// shows in cpu_ms_per_op.
	writerPeriod = 500 * time.Millisecond
)

// jobQuota bounds a campaign workload to perSecond jobs per second of
// its window d, about three quarters of what the daemon completes, so a
// run does a fixed amount of work and the memory the daemon keeps per
// job or namespace does not grow with its speed. A slower run stops at
// one and a half windows.
func jobQuota(perSecond float64, d time.Duration) (closedLoop, time.Time) {
	return closedLoop{n: max(1, int(perSecond*d.Seconds()))}, time.Now().Add(d * 3 / 2)
}

var workloads = []workload{
	{
		name: "campaign-cold",
		why:  "every job campaigns a new namespace, so inference, injection and the engine do the work",
		run: func(ctx context.Context, e *env, d time.Duration) []sample {
			c := newClient(e.d.base, 1)
			defer c.close()
			l, until := jobQuota(3, d)
			return l.run(ctx, until, func(ctx context.Context, s *sample) {
				e.job(ctx, c, e.freshNamespace(), false, s)
			})
		},
	},
	{
		name: "campaign-warm",
		why:  "every job replays a complete store, so snapshot prepare, save and index rebuild dominate",
		run: func(ctx context.Context, e *env, d time.Duration) []sample {
			c := newClient(e.d.base, 1)
			defer c.close()
			l, until := jobQuota(9, d)
			return l.run(ctx, until, func(ctx context.Context, s *sample) {
				e.job(ctx, c, e.pop, true, s)
			})
		},
	},
	{
		name:  "read-mix",
		why:   "the dashboard's and report readers' requests on warm caches, at an assumed rate and mix, exercise the read path alone",
		reads: true,
		run: func(ctx context.Context, e *env, d time.Duration) []sample {
			return e.readLoad(ctx, readMixRate, 2, d)
		},
	},
	{
		name:  "read-under-write",
		why:   "the assumed read mix while paced warm jobs rewrite snapshots, so read caches rebuild under load",
		reads: true,
		run: func(ctx context.Context, e *env, d time.Duration) []sample {
			wctx, stop := context.WithCancel(ctx)
			var writes []sample
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := newClient(e.d.base, 1)
				defer c.close()
				// The writer runs until the reads end; a job in flight
				// then completes, on the outer context.
				l := closedLoop{period: writerPeriod}
				writes = l.run(wctx, time.Now().Add(2*d), func(_ context.Context, s *sample) {
					e.job(ctx, c, e.pop, true, s)
				})
			}()
			reads := e.readLoad(ctx, readUnderWriteRate, 1, d)
			stop()
			wg.Wait()
			return append(reads, writes...)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is the state one workload run shares between its operations.
type env struct {
	exp     *expected
	d       *daemon
	workers int
	rng     *rand.Rand
	// pop is the namespace populated during setup, popJob the setup
	// job's ID, and tableTag the ETag its tables were served with.
	pop      string
	popJob   string
	tableTag string
	// idxs are pop's outcome indexes, the source of the read plan's
	// query filters and expected answers.
	idxs       []*outcomeindex.System
	params     []string
	kinds      []string
	reactions  []string
	namespaces map[string]bool
}

func newEnv(exp *expected, d *daemon, workers int, seed int64) *env {
	return &env{exp: exp, d: d, workers: workers, rng: rand.New(rand.NewSource(seed)),
		namespaces: map[string]bool{}}
}

// freshNamespace returns a seeded namespace name not used before.
func (e *env) freshNamespace() string {
	for {
		ns := fmt.Sprintf("ns-%08x", e.rng.Uint32())
		if !e.namespaces[ns] {
			e.namespaces[ns] = true
			return ns
		}
	}
}

// job runs one all-systems job on namespace ns and checks it; warm
// jobs run on a complete store and must execute nothing. It returns the
// job's document, for callers that look further.
func (e *env) job(ctx context.Context, c *client, ns string, warm bool, s *sample) server.Job {
	s.kind = "job.cold"
	if warm {
		s.kind = "job.warm"
	}
	jr, err := c.runJob(ctx, ns, server.JobSpec{All: true, Workers: e.workers})
	s.post, s.events = jr.post, jr.events
	s.done = s.sent.Add(jr.total)
	if err == nil {
		err = e.exp.checkJob(jr.doc, warm)
	}
	s.err = err
	return jr.doc
}

// populate runs the setup campaign on namespace pop, warms every table
// (recording their ETag), and loads pop's indexes for the read plan.
func (e *env) populate(ctx context.Context) error {
	e.pop = e.freshNamespace()
	c := newClient(e.d.base, 1)
	defer c.close()
	var s sample
	s.sent = time.Now()
	doc := e.job(ctx, c, e.pop, false, &s)
	if s.err != nil {
		return fmt.Errorf("populating %s: %w", e.pop, s.err)
	}
	e.popJob = doc.ID
	for n := 1; n <= report.MaxTable; n++ {
		code, body, etag, err := c.get(ctx, e.tablePath(n), "")
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("table %d: status %d", n, code)
		}
		if err := e.exp.checkTable(n, body); err != nil {
			return err
		}
		e.tableTag = etag
	}
	store, err := campaignstore.Open(filepath.Join(e.d.state, e.pop))
	if err != nil {
		return err
	}
	if e.idxs, err = store.LoadIndexAll(); err != nil {
		return err
	}
	params, kinds, reactions := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, idx := range e.idxs {
		for k := range idx.ByParam {
			params[k] = true
		}
		for k := range idx.ByKind {
			kinds[k] = true
		}
		for k := range idx.ByReaction {
			reactions[k] = true
		}
	}
	e.params, e.kinds, e.reactions = sortedKeys(params), sortedKeys(kinds), sortedKeys(reactions)
	return nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (e *env) tablePath(n int) string {
	return fmt.Sprintf("/v1/ns/%s/tables/%d?format=text", e.pop, n)
}

// readReq is one planned read with its expected answer.
type readReq struct {
	// kind is the daemon's endpoint label for the request ("metrics" for
	// the unlabelled scrape endpoint).
	kind        string
	path        string
	table       int
	ifNoneMatch string
	query       outcomeindex.Query
	// query: the number of groups; outcomes: the system's total and the
	// page length.
	wantTotal, wantPage int
}

// dashboardPage is the outcome page size the dashboard's drill-down
// requests (internal/dash/static/app.js).
const dashboardPage = 50

// readChoices divides the read mix into equal shares. Every request is
// one the repository's own clients send (bench/README.md names the
// source of each); how often each is sent is an assumption, as no usage
// data exists: a third are the dashboard's polls and listings
// (/metrics, /v1/ns, the namespace's job list), a third table reads as
// a report reader or spexeval user makes them (half revalidating the
// ETag seen at setup, answered 304), and a third the dashboard's
// drill-downs (an outcome page of 50, a cross-system query with seeded
// filters).
const readChoices = 18

// readPlan draws n reads from the mix.
func (e *env) readPlan(n int) []readReq {
	plan := make([]readReq, n)
	for i := range plan {
		plan[i] = e.readReq(e.rng.Intn(readChoices))
	}
	return plan
}

// readReq is the read for share choice of the mix, its details seeded.
func (e *env) readReq(choice int) readReq {
	switch {
	case choice < 2:
		return readReq{kind: "metrics", path: "/metrics"}
	case choice < 4:
		return readReq{kind: "ns_list", path: "/v1/ns"}
	case choice < 6:
		return readReq{kind: "jobs_list", path: "/v1/ns/" + e.pop + "/jobs"}
	case choice < 12:
		t := 1 + e.rng.Intn(report.MaxTable)
		r := readReq{kind: "table", path: e.tablePath(t), table: t}
		if choice >= 9 {
			r.ifNoneMatch = e.tableTag
		}
		return r
	case choice < 15:
		systems := e.exp.systemNames()
		sys := systems[e.rng.Intn(len(systems))]
		total := e.exp.Systems[sys].Outcomes
		return readReq{kind: "outcomes", wantTotal: total, wantPage: min(dashboardPage, total),
			path: fmt.Sprintf("/v1/ns/%s/systems/%s/outcomes?limit=%d", e.pop, url.PathEscape(sys), dashboardPage)}
	default:
		return e.queryReq()
	}
}

// coverReads performs rounds of every share of the read mix in turn,
// one at a time on c, so a traced run measures every read endpoint
// whatever its workload.
func (e *env) coverReads(ctx context.Context, c *client, rounds int) []sample {
	out := make([]sample, 0, rounds*readChoices)
	for i := 0; i < rounds*readChoices && ctx.Err() == nil; i++ {
		r := e.readReq(i % readChoices)
		s := sample{kind: r.kind, due: time.Now()}
		s.sent = s.due
		s.err = e.read(ctx, c, r)
		s.done = time.Now()
		out = append(out, s)
	}
	return out
}

// queryReq draws one of the dashboard's query-form submissions: a
// parameter, kind, reaction, kind and reaction, or minimum-systems
// filter, half of them over all outcomes rather than vulnerabilities.
func (e *env) queryReq() readReq {
	var q outcomeindex.Query
	v := url.Values{}
	switch e.rng.Intn(5) {
	case 0:
		q.Param = e.params[e.rng.Intn(len(e.params))]
		v.Set("param", q.Param)
	case 1:
		q.Kind = e.kinds[e.rng.Intn(len(e.kinds))]
		v.Set("kind", q.Kind)
	case 2:
		q.Reaction = e.reactions[e.rng.Intn(len(e.reactions))]
		v.Set("reaction", q.Reaction)
	case 3:
		q.Kind = e.kinds[e.rng.Intn(len(e.kinds))]
		q.Reaction = e.reactions[e.rng.Intn(len(e.reactions))]
		v.Set("kind", q.Kind)
		v.Set("reaction", q.Reaction)
	default:
		q.MinSystems = 2 + e.rng.Intn(2)
		v.Set("min-systems", fmt.Sprint(q.MinSystems))
	}
	if e.rng.Intn(2) == 0 {
		q.All = true
		v.Set("all", "1")
	}
	return readReq{kind: "query", path: "/v1/ns/" + e.pop + "/query?" + v.Encode(), query: q,
		wantTotal: len(outcomeindex.Run(e.idxs, q))}
}

// readLoad runs the seeded read mix open-loop at rate over conns
// connections for d.
func (e *env) readLoad(ctx context.Context, rate float64, conns int, d time.Duration) []sample {
	plan := e.readPlan(int(rate * d.Seconds()))
	c := newClient(e.d.base, conns)
	defer c.close()
	l := openLoop{rate: rate, conns: conns, sleepUntil: sleepUntil}
	return l.run(ctx, len(plan), time.Now(), func(ctx context.Context, i int, s *sample) {
		s.kind, s.err = plan[i].kind, e.read(ctx, c, plan[i])
	})
}

// read performs one planned read and checks its answer: 200 (or 304 for
// a conditional table read) with the pinned or precomputed content.
func (e *env) read(ctx context.Context, c *client, r readReq) error {
	code, body, _, err := c.get(ctx, r.path, r.ifNoneMatch)
	if err != nil {
		return err
	}
	if code == http.StatusNotModified && r.ifNoneMatch != "" {
		return nil
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", r.path, code)
	}
	switch r.kind {
	case "metrics":
		// The CI smoke's bar for a complete registry.
		if n := bytes.Count(body, []byte("# TYPE ")); n < 20 {
			return fmt.Errorf("GET /metrics: %d metric families, want at least 20", n)
		}
	case "ns_list":
		var got struct {
			Namespaces []struct {
				Name string `json:"name"`
			} `json:"namespaces"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		for _, ns := range got.Namespaces {
			if ns.Name == e.pop {
				return nil
			}
		}
		return fmt.Errorf("GET /v1/ns: namespace %s missing", e.pop)
	case "jobs_list":
		var got struct {
			Jobs []server.Job `json:"jobs"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Jobs) == 0 || got.Jobs[0].ID != e.popJob || got.Jobs[0].State != server.StateDone {
			return fmt.Errorf("GET %s: %d jobs, the first not the done setup job %s", r.path, len(got.Jobs), e.popJob)
		}
		for _, j := range got.Jobs {
			if j.State == server.StateFailed || j.State == server.StateCancelled {
				return fmt.Errorf("GET %s: job %s %s", r.path, j.ID, j.State)
			}
		}
	case "table":
		return e.exp.checkTable(r.table, body)
	case "query":
		var got struct {
			Total int `json:"total"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Total != r.wantTotal {
			return fmt.Errorf("GET %s: %d groups, want %d", r.path, got.Total, r.wantTotal)
		}
	case "outcomes":
		var got struct {
			Total    int               `json:"total"`
			Outcomes []json.RawMessage `json:"outcomes"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Total != r.wantTotal || len(got.Outcomes) != r.wantPage {
			return fmt.Errorf("GET %s: total %d page %d, want %d and %d",
				r.path, got.Total, len(got.Outcomes), r.wantTotal, r.wantPage)
		}
	}
	return nil
}

// isRead reports whether a sample kind is a read.
func isRead(kind string) bool { return kind != "job.cold" && kind != "job.warm" }

// setupRun starts a daemon on a fresh state root under dir and
// populates it; see env.populate. extra are further spexd flags.
func setupRun(ctx context.Context, bin, dir string, exp *expected, workers int, seed int64, extra ...string) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, bin, filepath.Join(dir, "state"), filepath.Join(dir, "spexd.log"), extra...)
	if err != nil {
		return nil, err
	}
	e := newEnv(exp, d, workers, seed)
	if err := e.populate(ctx); err != nil {
		d.kill()
		return nil, err
	}
	return e, nil
}
