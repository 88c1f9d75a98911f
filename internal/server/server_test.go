package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/constraint"
	"spex/internal/dash"
	"spex/internal/golden"
	"spex/internal/inject"
	"spex/internal/obs"
	"spex/internal/report"
	"spex/internal/server"
)

// daemon spins up a Server plus an httptest front end.
func daemon(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	return s, ts
}

// pinned returns testdata/golden/stores.txt's outcome count and store
// fingerprint for the named systems, or for all seven if none is named.
func pinned(t *testing.T, systems ...string) map[string]golden.Store {
	t.Helper()
	want, err := golden.Stores("../../testdata/golden", systems...)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// summarized returns each of a job's system summaries as its outcome
// count and fingerprint.
func summarized(job server.Job) map[string]golden.Store {
	out := make(map[string]golden.Store, len(job.Systems))
	for _, sum := range job.Systems {
		out[sum.System] = golden.Store{Outcomes: sum.Outcomes, Fingerprint: sum.Fingerprint}
	}
	return out
}

func postJob(t *testing.T, base string, spec string) server.Job {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d %s", resp.StatusCode, body)
	}
	var doc server.Job
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("job document: %v\n%s", err, body)
	}
	return doc
}

func getJob(t *testing.T, base, id string) server.Job {
	t.Helper()
	return getJobAt(t, base+"/v1/jobs/"+id)
}

// getJobAt fetches a job document by its resource URL
// (/v1/[ns/{ns}/]jobs/{id}).
func getJobAt(t *testing.T, url string) server.Job {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc server.Job
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// getTrace fetches a job's span tree (GET /v1/jobs/{id}/trace).
func getTrace(t *testing.T, base, id string) obs.TraceDoc {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s trace: %d", id, resp.StatusCode)
	}
	var doc obs.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func waitTerminal(t *testing.T, base, id string, timeout time.Duration) server.Job {
	t.Helper()
	return waitTerminalAt(t, base+"/v1/jobs/"+id, timeout)
}

// waitTerminalAt follows the job's event stream, which the daemon
// closes right after the terminal frame, and returns the final job
// document.
func waitTerminalAt(t *testing.T, jobURL string, timeout time.Duration) server.Job {
	t.Helper()
	c := collect(t, jobURL+"/events", 0)
	select {
	case <-c.done:
	case <-time.After(timeout):
		c.stop()
		t.Fatalf("%s: event stream still open after %s", jobURL, timeout)
	}
	doc := getJobAt(t, jobURL)
	switch doc.State {
	case server.StateDone, server.StateFailed, server.StateCancelled:
	default:
		t.Fatalf("%s: event stream ended with the job %s", jobURL, doc.State)
	}
	return doc
}

// collector follows one SSE stream of dash.Event frames — a job's
// /v1/jobs/{id}/events or a /v1/[ns/{ns}/]events bus stream — and
// records every event until the daemon closes the stream or stop is
// called.
type collector struct {
	mu     sync.Mutex
	events []dash.Event
	// more is closed (and replaced) whenever an event arrives.
	more   chan struct{}
	done   chan struct{}
	cancel context.CancelFunc
}

// collect attaches to url. lastEventID > 0 resumes with the SSE
// Last-Event-ID header.
func collect(t *testing.T, url string, lastEventID uint64) *collector {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	c := &collector{more: make(chan struct{}), done: make(chan struct{}), cancel: cancel}
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("%s content-type = %q", url, ct)
	}
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var e dash.Event
				if json.Unmarshal([]byte(data), &e) == nil {
					c.mu.Lock()
					c.events = append(c.events, e)
					close(c.more)
					c.more = make(chan struct{})
					c.mu.Unlock()
				}
			}
		}
	}()
	return c
}

// wait blocks until the daemon closes the stream and returns every
// event it carried.
func (c *collector) wait(t *testing.T) []dash.Event {
	t.Helper()
	select {
	case <-c.done:
	case <-time.After(2 * time.Minute):
		t.Fatal("event stream never closed")
	}
	return c.snapshot()
}

// stop tears the connection down and returns everything collected.
func (c *collector) stop() []dash.Event {
	c.cancel()
	<-c.done
	return c.snapshot()
}

func (c *collector) snapshot() []dash.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]dash.Event(nil), c.events...)
}

// waitFor blocks until a collected event satisfies pred and returns it.
func (c *collector) waitFor(t *testing.T, what string, pred func(dash.Event) bool, timeout time.Duration) dash.Event {
	t.Helper()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	seen, ended := 0, false
	for {
		c.mu.Lock()
		for ; seen < len(c.events); seen++ {
			if e := c.events[seen]; pred(e) {
				c.mu.Unlock()
				return e
			}
		}
		more := c.more
		c.mu.Unlock()
		if ended {
			t.Fatalf("event stream ended without %s", what)
		}
		select {
		case <-more:
		case <-c.done:
			ended = true // one last scan covers everything the reader appended
		case <-timer.C:
			t.Fatalf("event stream never delivered %s", what)
		}
	}
}

// TestDaemonEndToEnd is the acceptance run, once per golden daemon
// mode, each on a fresh state directory: submit an all-systems job over
// HTTP, check each system summary's outcome count and fingerprint
// against testdata/golden/stores.txt, and byte-diff all twelve served
// tables against testdata/golden — exactly what `spexeval -table N`
// prints. The plain job also checks
// the SSE stream, ETags, the JSON form, outcome serving, and that a
// second job replays the store at zero fresh cost.
func TestDaemonEndToEnd(t *testing.T) {
	for _, mode := range []struct{ name, spec string }{
		{"plain", `{"all": true, "workers": 4}`},
		{"staged", `{"all": true, "workers": 4, "stages": ["infer", "inject", "eval"]}`},
		{"coordinate", `{"all": true, "workers": 2, "coordinate": 2}`},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			_, ts := daemon(t, server.Config{StateDir: dir, Workers: 4})

			// An empty store serves no tables yet.
			resp, err := http.Get(ts.URL + "/v1/tables/5")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("tables on an empty store: %d, want 409", resp.StatusCode)
			}

			doc := postJob(t, ts.URL, mode.spec)
			sse := collect(t, ts.URL+"/v1/jobs/"+doc.ID+"/events", 0)
			final := waitTerminal(t, ts.URL, doc.ID, 2*time.Minute)
			if final.State != server.StateDone {
				t.Fatalf("job ended %s: %s", final.State, final.Error)
			}
			if len(final.Systems) != 7 {
				t.Fatalf("job summarizes %d systems, want 7", len(final.Systems))
			}
			if got, want := summarized(final), pinned(t); !maps.Equal(got, want) {
				t.Errorf("the job summarizes %v, testdata/golden/stores.txt pins %v", got, want)
			}
			for n := 1; n <= report.MaxTable; n++ {
				golden, err := os.ReadFile(fmt.Sprintf("../../testdata/golden/table%02d.txt", n))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Get(fmt.Sprintf("%s/v1/tables/%d?format=text", ts.URL, n))
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("table %d: %d %s", n, resp.StatusCode, body)
				}
				if string(body) != string(golden) {
					t.Errorf("table %d text differs from testdata/golden", n)
				}
			}
			if mode.name == "plain" {
				checkPlainJob(t, ts.URL, dir, final, sse.wait(t))
			}
		})
	}
}

// checkPlainJob runs the plain end-to-end job's remaining checks: its
// summaries and SSE stream, table ETags and JSON, outcome serving, and
// a zero-fresh-cost replay job over the same store in dir, which leaves
// the snapshot as it was.
func checkPlainJob(t *testing.T, base, dir string, final server.Job, events []dash.Event) {
	t.Helper()
	fingerprints := map[string]string{}
	for _, sum := range final.Systems {
		if sum.Executed == 0 {
			t.Errorf("%s executed nothing on a fresh store: %+v", sum.System, sum)
		}
		fingerprints[sum.System] = sum.Fingerprint
	}

	var sawRunning, sawDone bool
	progress := 0
	for _, e := range events {
		switch {
		case e.Kind == dash.KindJob && e.State == server.StateRunning:
			sawRunning = true
		case e.Kind == dash.KindJob && e.State == server.StateDone:
			sawDone = true
		case e.Kind == dash.KindProgress:
			if e.Progress == nil || e.Progress.System == "" {
				t.Fatalf("malformed progress event: %+v", e)
			}
			progress++
		}
	}
	if !sawRunning || !sawDone || progress == 0 {
		t.Fatalf("SSE stream incomplete: running=%v done=%v progress=%d", sawRunning, sawDone, progress)
	}

	for _, n := range []int{3, 5, 9, 11} {
		golden, err := os.ReadFile(fmt.Sprintf("../../testdata/golden/table%02d.txt", n))
		if err != nil {
			t.Fatal(err)
		}
		wantText := strings.TrimSuffix(string(golden), "\n")
		resp, err := http.Get(fmt.Sprintf("%s/v1/tables/%d?format=text", base, n))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// The table carries the store-state ETag and honors it.
		if tag := resp.Header.Get("ETag"); tag == "" {
			t.Errorf("table %d has no ETag", n)
		} else {
			req, _ := http.NewRequest("GET", fmt.Sprintf("%s/v1/tables/%d?format=text", base, n), nil)
			req.Header.Set("If-None-Match", tag)
			cresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			cresp.Body.Close()
			if cresp.StatusCode != http.StatusNotModified {
				t.Errorf("table %d with If-None-Match: %d, want 304", n, cresp.StatusCode)
			}
		}
		// And the JSON form must re-render to the same bytes.
		jresp, err := http.Get(fmt.Sprintf("%s/v1/tables/%d", base, n))
		if err != nil {
			t.Fatal(err)
		}
		var payload struct {
			Table  int             `json:"table"`
			Tables []*report.Table `json:"tables"`
		}
		if err := json.NewDecoder(jresp.Body).Decode(&payload); err != nil {
			t.Fatal(err)
		}
		jresp.Body.Close()
		parts := make([]string, len(payload.Tables))
		for i, tab := range payload.Tables {
			parts[i] = tab.String()
		}
		if got := strings.Join(parts, "\n"); got != wantText {
			t.Errorf("table %d JSON does not re-render to the text form", n)
		}
	}

	// Outcome serving.
	oresp, err := http.Get(base + "/v1/systems/proxyd/outcomes")
	if err != nil {
		t.Fatal(err)
	}
	var outcomes struct {
		System          string               `json:"system"`
		Outcomes        []server.OutcomeView `json:"outcomes"`
		Vulnerabilities int                  `json:"vulnerabilities"`
	}
	if err := json.NewDecoder(oresp.Body).Decode(&outcomes); err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close()
	if outcomes.System != "proxyd" || len(outcomes.Outcomes) == 0 || outcomes.Vulnerabilities == 0 {
		t.Fatalf("outcome listing implausible: system=%q n=%d vulns=%d",
			outcomes.System, len(outcomes.Outcomes), outcomes.Vulnerabilities)
	}

	// A second job over the same store must replay everything at zero
	// fresh cost, leave the snapshot's bytes and mtime as they were and
	// land on the same fingerprint — the daemon is the incremental
	// pipeline behind an API.
	snapPath := filepath.Join(dir, "proxyd.campaign.snap")
	readSnap := func() ([]byte, time.Time) {
		t.Helper()
		fi, err := os.Stat(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		return data, fi.ModTime()
	}
	coldData, coldMod := readSnap()
	doc2 := postJob(t, base, `{"systems": ["proxyd"], "workers": 4}`)
	final2 := waitTerminal(t, base, doc2.ID, time.Minute)
	if final2.State != server.StateDone || len(final2.Systems) != 1 {
		t.Fatalf("replay job: %+v", final2)
	}
	sum := final2.Systems[0]
	if sum.Executed != 0 || sum.Replayed != sum.Outcomes || sum.SimCost != 0 {
		t.Errorf("replay job executed fresh work: %+v", sum)
	}
	if sum.Fingerprint != fingerprints["proxyd"] {
		t.Errorf("replay fingerprint %s != original %s", sum.Fingerprint, fingerprints["proxyd"])
	}
	if data, mod := readSnap(); !bytes.Equal(data, coldData) || !mod.Equal(coldMod) {
		t.Errorf("the replay job rewrote proxyd's snapshot (mtime %v, was %v)", mod, coldMod)
	}
}

// TestDaemonCancellationLeavesResumableStore: DELETE on a running job
// cancels through the context plumbing; a follow-up job resumes from
// the persisted prefix instead of restarting the campaign.
func TestDaemonCancellationLeavesResumableStore(t *testing.T) {
	dir := t.TempDir()
	// One job slot, so the ldapd job below stays queued behind the
	// running proxyd job instead of dispatching concurrently.
	_, ts := daemon(t, server.Config{StateDir: dir, MaxConcurrentJobs: 1})

	// One worker and a per-unit delay keep the campaign running long
	// enough to cancel deterministically after the first outcome.
	doc := postJob(t, ts.URL, `{"systems": ["proxyd"], "workers": 1, "sim_delay": "5ms"}`)
	sse := collect(t, ts.URL+"/v1/jobs/"+doc.ID+"/events", 0)
	sse.waitFor(t, "a progress event", func(e dash.Event) bool { return e.Kind == dash.KindProgress }, time.Minute)

	// A job queued behind the running one cancels immediately and the
	// serial runner must skip it.
	queued := postJob(t, ts.URL, `{"systems": ["ldapd"]}`)
	qreq, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	qresp, err := http.DefaultClient.Do(qreq)
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE queued job: %d, want 200", qresp.StatusCode)
	}
	if got := getJob(t, ts.URL, queued.ID); got.State != server.StateCancelled {
		t.Fatalf("queued job state %s, want cancelled", got.State)
	}
	// Cancelling a terminal job conflicts.
	qresp2, err := http.DefaultClient.Do(qreq.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	qresp2.Body.Close()
	if qresp2.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE terminal job: %d, want 409", qresp2.StatusCode)
	}

	req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+doc.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running job: %d, want 202", resp.StatusCode)
	}
	final := waitTerminal(t, ts.URL, doc.ID, time.Minute)
	if final.State != server.StateCancelled || !final.CancelRequested {
		t.Fatalf("job ended %s (cancel_requested=%v), want cancelled by request", final.State, final.CancelRequested)
	}
	sse.wait(t)
	// The job span and proxyd's system span say how each ended.
	kinds := map[string]string{}
	for _, sp := range getTrace(t, ts.URL, doc.ID).Spans {
		if sp.Kind != obs.SpanMisconf {
			kinds[sp.Kind+" "+sp.Name] = sp.Status
		}
	}
	if want := map[string]string{"job " + doc.ID: "cancelled", "system proxyd": "cancelled"}; !maps.Equal(kinds, want) {
		t.Errorf("cancelled job's spans end %v, want %v", kinds, want)
	}

	// The resumed job replays the persisted prefix and finishes the
	// rest — never a full restart.
	doc2 := postJob(t, ts.URL, `{"systems": ["proxyd"], "workers": 4}`)
	final2 := waitTerminal(t, ts.URL, doc2.ID, time.Minute)
	if final2.State != server.StateDone {
		t.Fatalf("resume job ended %s: %s", final2.State, final2.Error)
	}
	sum := final2.Systems[0]
	if sum.Replayed == 0 {
		t.Errorf("resume job replayed nothing; the cancelled run's outcomes were lost: %+v", sum)
	}
	if sum.Executed == 0 {
		t.Errorf("resume job executed nothing; cancellation skipped no work? %+v", sum)
	}
	// Its trace counts the replays on the system span and holds one
	// misconf span per executed misconfiguration under it.
	var sys obs.SpanDoc
	misconfs := 0
	for _, sp := range getTrace(t, ts.URL, doc2.ID).Spans {
		switch sp.Kind {
		case obs.SpanSystem:
			sys = sp
		case obs.SpanMisconf:
			if sp.Parent != sys.ID {
				t.Errorf("misconf span %s is under %q, not the system span %q", sp.Name, sp.Parent, sys.ID)
			}
			misconfs++
		}
	}
	if sys.Name != "proxyd" || sys.Attrs["replayed"] != strconv.Itoa(sum.Replayed) || misconfs != sum.Executed {
		t.Errorf("resume trace: system %s replayed=%s with %d misconf spans, want proxyd replayed=%d with %d",
			sys.Name, sys.Attrs["replayed"], misconfs, sum.Replayed, sum.Executed)
	}
}

// TestDaemonCoordinateJob embeds the work-stealing coordinator behind
// the API with in-process workers. The jobs share the namespace's shard
// directories, which keep each earlier job's snapshots: every job must
// merge only its own system and leave the other's root snapshot as its
// own job saved it.
func TestDaemonCoordinateJob(t *testing.T) {
	dir := t.TempDir()
	_, ts := daemon(t, server.Config{StateDir: dir, Workers: 2})
	store, err := campaignstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	saved := map[string]string{} // system -> fingerprint its job saved
	for _, system := range []string{"ldapd", "proxyd"} {
		doc := postJob(t, ts.URL, fmt.Sprintf(`{"systems": [%q], "coordinate": 2, "workers": 2}`, system))
		sse := collect(t, ts.URL+"/v1/jobs/"+doc.ID+"/events", 0)
		final := waitTerminal(t, ts.URL, doc.ID, 2*time.Minute)
		if final.State != server.StateDone {
			t.Fatalf("%s coordinate job ended %s: %s", system, final.State, final.Error)
		}
		if final.Spawns < 2 {
			t.Errorf("%s coordinate job spawned %d workers, want >= 2", system, final.Spawns)
		}
		if len(final.Systems) != 1 || final.Systems[0].System != system || final.Systems[0].Fingerprint == "" {
			t.Fatalf("%s coordinate job summaries: %+v", system, final.Systems)
		}
		saved[system] = final.Systems[0].Fingerprint

		kinds := map[string]bool{}
		for _, e := range sse.wait(t) {
			if e.Kind == dash.KindCoord && e.Coord != nil {
				kinds[e.Coord.Kind] = true
			}
		}
		for _, want := range []string{"plan", "spawn", "merge"} {
			if !kinds[want] {
				t.Errorf("%s: SSE stream missing coordinator %q event (saw %v)", system, want, kinds)
			}
		}

		// Each spawn is a worker span, each in-process worker's system
		// span sits under it, and each rebalance is a steal span.
		workers := map[string]bool{}
		count := map[string]int{}
		for _, sp := range getTrace(t, ts.URL, doc.ID).Spans {
			count[sp.Kind]++
			switch sp.Kind {
			case obs.SpanWorker:
				workers[sp.ID] = true
			case obs.SpanSystem:
				if !workers[sp.Parent] || sp.Name != system {
					t.Errorf("%s: system span %s is under %q, not a worker span", system, sp.Name, sp.Parent)
				}
			}
		}
		if count[obs.SpanWorker] != final.Spawns || count[obs.SpanSteal] != final.Steals || count[obs.SpanSystem] == 0 {
			t.Errorf("%s: %d worker, %d steal and %d system spans for %d spawns and %d steals",
				system, count[obs.SpanWorker], count[obs.SpanSteal], count[obs.SpanSystem], final.Spawns, final.Steals)
		}
	}
	for system, fp := range saved {
		idx, err := store.LoadIndex(system)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Fingerprint != fp {
			t.Errorf("%s snapshot fingerprint %s, want %s as its job saved it", system, idx.Fingerprint, fp)
		}
	}
}

// TestDaemonValidationAndRestart covers the API edges and the durable
// journal: bad specs are rejected, a second daemon cannot share the
// state dir, and a restarted daemon lists the previous jobs.
func TestDaemonValidationAndRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := server.New(server.Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	for _, bad := range []string{
		`{}`,
		`{"systems": ["no-such-system"]}`,
		`{"all": true, "coordinate": 1}`,
		`{"systems": ["ldapd"], "coordinate": 3000}`,
		`{"all": true, "sim_delay": "not-a-duration"}`,
		`{"all": true, "bogus_field": 1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s accepted with %d, want 400", bad, resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: %d, want 404", resp.StatusCode)
		}
	}

	// The daemon owns the state dir exclusively.
	if _, err := server.New(server.Config{StateDir: dir}); err == nil {
		t.Fatal("second daemon acquired the same state dir")
	}

	// Run one quick job so the journal has an entry.
	doc := postJob(t, ts.URL, `{"systems": ["ldapd"], "workers": 2}`)
	waitTerminal(t, ts.URL, doc.ID, time.Minute)

	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Clean lock release.
	if _, err := os.Stat(campaignstore.LockPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("state lock survived shutdown: %v", err)
	}

	// Restart: journaled jobs are listed, terminal, and queryable.
	s2, err := server.New(server.Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var listing struct {
		Jobs []server.Job `json:"jobs"`
	}
	resp, err := http.Get(ts2.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, j := range listing.Jobs {
		if j.ID == doc.ID && j.State == server.StateDone {
			found = true
		}
	}
	if !found {
		t.Fatalf("restarted daemon lost job %s from its journal: %+v", doc.ID, listing.Jobs)
	}
	// A new job on the restarted daemon must not collide with old IDs.
	doc2 := postJob(t, ts2.URL, `{"systems": ["ldapd"], "workers": 2}`)
	if doc2.ID == doc.ID {
		t.Fatalf("job ID %s reused after restart", doc2.ID)
	}
	if got := waitTerminal(t, ts2.URL, doc2.ID, time.Minute); got.State != server.StateDone {
		t.Fatalf("post-restart job ended %s: %s", got.State, got.Error)
	}
}

// TestReadPathPagingEtagQuery exercises the index-served read path:
// ?limit/?offset paging with the whole-system tallies, ETag /
// If-None-Match revalidation on every read endpoint, and the
// cross-system /v1/query endpoint.
func TestReadPathPagingEtagQuery(t *testing.T) {
	dir := t.TempDir()
	_, ts := daemon(t, server.Config{StateDir: dir, Workers: 4})

	doc := postJob(t, ts.URL, `{"systems": ["ldapd"], "workers": 4}`)
	if final := waitTerminal(t, ts.URL, doc.ID, time.Minute); final.State != server.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}

	type envelope struct {
		System          string               `json:"system"`
		Total           int                  `json:"total"`
		Offset          int                  `json:"offset"`
		Limit           int                  `json:"limit"`
		Outcomes        []server.OutcomeView `json:"outcomes"`
		ByReaction      map[string]int       `json:"by_reaction"`
		Vulnerabilities int                  `json:"vulnerabilities"`
	}
	get := func(url string) (envelope, *http.Response) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env envelope
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
		}
		return env, resp
	}

	full, resp := get(ts.URL + "/v1/systems/ldapd/outcomes")
	if resp.StatusCode != http.StatusOK || full.Total == 0 || len(full.Outcomes) != full.Total {
		t.Fatalf("full listing: %d, total=%d n=%d", resp.StatusCode, full.Total, len(full.Outcomes))
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("outcomes response carries no ETag")
	}

	// A page is a slice of the full listing; the tallies stay whole.
	page, resp := get(ts.URL + "/v1/systems/ldapd/outcomes?limit=2&offset=1")
	if resp.StatusCode != http.StatusOK || len(page.Outcomes) != 2 || page.Offset != 1 || page.Limit != 2 {
		t.Fatalf("page: %d, %+v", resp.StatusCode, page)
	}
	if page.Outcomes[0].Key != full.Outcomes[1].Key || page.Outcomes[1].Key != full.Outcomes[2].Key {
		t.Fatal("page is not a slice of the full listing")
	}
	if page.Total != full.Total || page.Vulnerabilities != full.Vulnerabilities {
		t.Fatalf("page tallies differ from the full listing: %+v", page)
	}
	if past, resp := get(fmt.Sprintf("%s/v1/systems/ldapd/outcomes?offset=%d", ts.URL, full.Total)); resp.StatusCode != http.StatusOK || len(past.Outcomes) != 0 {
		t.Fatalf("offset past the end: %d, n=%d", resp.StatusCode, len(past.Outcomes))
	}
	for _, bad := range []string{"?limit=0", "?limit=-1", "?limit=x", "?offset=-1"} {
		if _, resp := get(ts.URL + "/v1/systems/ldapd/outcomes" + bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", bad, resp.StatusCode)
		}
	}
	// A system without a snapshot is 404, a name holding NUL included.
	for _, name := range []string{"nope", "a%00b"} {
		if _, resp := get(ts.URL + "/v1/systems/" + name + "/outcomes"); resp.StatusCode != http.StatusNotFound {
			t.Errorf("outcomes of %s: %d, want 404", name, resp.StatusCode)
		}
	}

	// Conditional revalidation on every read endpoint. (/v1/tables
	// needs all seven systems' snapshots — its ETag round trip runs in
	// TestDaemonEndToEnd.)
	for _, path := range []string{"/v1/systems/ldapd/outcomes", "/v1/systems", "/v1/query?all=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		tag := resp.Header.Get("ETag")
		if resp.StatusCode != http.StatusOK || tag == "" {
			t.Fatalf("%s: %d etag=%q", path, resp.StatusCode, tag)
		}
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", tag)
		cresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(cresp.Body)
		cresp.Body.Close()
		if cresp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("%s with If-None-Match: %d (%d body bytes), want empty 304", path, cresp.StatusCode, len(body))
		}
		if got := cresp.Header.Get("ETag"); got != tag {
			t.Fatalf("%s: 304 carries etag %q, want %q", path, got, tag)
		}
	}

	// The cross-system query groups misconfigurations by (param, rule).
	qresp, err := http.Get(ts.URL + "/v1/query?all=1")
	if err != nil {
		t.Fatal(err)
	}
	var query struct {
		Systems []string `json:"systems"`
		Total   int      `json:"total"`
		Groups  []struct {
			Param     string         `json:"param"`
			Systems   []string       `json:"systems"`
			Outcomes  int            `json:"outcomes"`
			Reactions map[string]int `json:"reactions"`
		} `json:"groups"`
	}
	if err := json.NewDecoder(qresp.Body).Decode(&query); err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if len(query.Systems) != 1 || query.Systems[0] != "ldapd" || query.Total == 0 || query.Total != len(query.Groups) {
		t.Fatalf("query envelope implausible: %+v", query)
	}
	total := 0
	for _, g := range query.Groups {
		total += g.Outcomes
	}
	if total != full.Total {
		t.Fatalf("query groups cover %d outcomes, store holds %d", total, full.Total)
	}

	// Filtered query: one parameter family only.
	param := query.Groups[0].Param
	fresp, err := http.Get(ts.URL + "/v1/query?all=1&param=" + param)
	if err != nil {
		t.Fatal(err)
	}
	var filtered struct {
		Groups []struct {
			Param string `json:"param"`
		} `json:"groups"`
	}
	if err := json.NewDecoder(fresp.Body).Decode(&filtered); err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if len(filtered.Groups) == 0 {
		t.Fatal("param-filtered query found nothing")
	}
	for _, g := range filtered.Groups {
		if g.Param != param {
			t.Fatalf("param filter leaked %q", g.Param)
		}
	}

	// Bad query parameters are rejected.
	for _, bad := range []string{"?min-systems=x", "?all=maybe"} {
		bresp, err := http.Get(ts.URL + "/v1/query" + bad)
		if err != nil {
			t.Fatal(err)
		}
		bresp.Body.Close()
		if bresp.StatusCode != http.StatusBadRequest {
			t.Errorf("query%s: %d, want 400", bad, bresp.StatusCode)
		}
	}
}

// TestStaleSnapshotReadsConflict: a snapshot written under another
// schema fingerprint makes the cross-system reads and the tables answer
// 409 Conflict naming the stale schema, not 500 and not an index built
// before the rewrite. The rewrite keeps the file's size and mtime.
func TestStaleSnapshotReadsConflict(t *testing.T) {
	dir := t.TempDir()
	store, err := campaignstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lock, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	err = lock.Set().Save(campaignstore.New("ldapd", constraint.NewSet("ldapd"), inject.DefaultOptions(), nil))
	lock.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(store.Path("ldapd"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path("ldapd"))
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(data), campaignstore.SchemaFingerprint(), "v0-0123456789abcdef", 1)
	if err := os.WriteFile(store.Path("ldapd"), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(store.Path("ldapd"), fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}

	_, ts := daemon(t, server.Config{StateDir: dir, Workers: 2})
	for _, path := range []string{"/v1/systems", "/v1/query?all=1", "/v1/tables/5"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), campaignstore.ErrStale.Error()) {
			t.Errorf("%s over a schema-stale snapshot: %d %s, want 409 naming the stale schema", path, resp.StatusCode, body)
		}
	}
}
