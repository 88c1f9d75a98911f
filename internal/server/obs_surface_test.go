package server_test

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spex/internal/dash"
	"spex/internal/obs"
	"spex/internal/server"
)

// TestSSEKeepalive: an open event stream carries ": keepalive" comment
// frames at the configured idle interval, interleaved with (and
// invisible to) the JSON events.
func TestSSEKeepalive(t *testing.T) {
	dir := t.TempDir()
	_, ts := daemon(t, server.Config{StateDir: dir, Workers: 1, KeepaliveInterval: 10 * time.Millisecond})

	// A slowed single-worker campaign keeps the stream open long
	// enough for keepalive ticks; the daemon's shutdown cancels it.
	doc := postJob(t, ts.URL, `{"systems": ["proxyd"], "workers": 1, "sim_delay": "5ms"}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	keepalives, events := 0, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for (keepalives == 0 || events == 0) && sc.Scan() {
		line := sc.Text()
		if line == ": keepalive" {
			keepalives++
		}
		if strings.HasPrefix(line, "data: ") {
			events++
		}
	}
	if keepalives == 0 {
		t.Errorf("stream closed after %d events with no keepalive frames", events)
	}
	if events == 0 {
		t.Error("stream carried no events")
	}
}

// TestJobTrace: a finished job serves a span tree — job → system →
// misconf — as JSON and as indented text, and the tree is persisted
// next to the job journal.
func TestJobTrace(t *testing.T) {
	dir := t.TempDir()
	_, ts := daemon(t, server.Config{StateDir: dir, Workers: 2})

	doc := postJob(t, ts.URL, `{"systems": ["ldapd"], "workers": 2}`)
	final := waitTerminal(t, ts.URL, doc.ID, 2*time.Minute)
	if final.State != server.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}

	tdoc := getTrace(t, ts.URL, doc.ID)
	if tdoc.Job != doc.ID {
		t.Errorf("trace job = %q, want %q", tdoc.Job, doc.ID)
	}
	var jobSpan, sysSpan *obs.SpanDoc
	misconfs := 0
	for i := range tdoc.Spans {
		s := &tdoc.Spans[i]
		switch s.Kind {
		case obs.SpanJob:
			jobSpan = s
		case obs.SpanSystem:
			sysSpan = s
		case obs.SpanMisconf:
			misconfs++
		}
	}
	if jobSpan == nil || jobSpan.Status != server.StateDone {
		t.Fatalf("job span = %+v, want status done", jobSpan)
	}
	if sysSpan == nil || sysSpan.Name != "ldapd" || sysSpan.Parent != jobSpan.ID {
		t.Fatalf("system span = %+v, want ldapd under %s", sysSpan, jobSpan.ID)
	}
	if misconfs == 0 {
		t.Error("trace has no misconf spans")
	}

	text, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/trace?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	body, _ := io.ReadAll(text.Body)
	if !strings.Contains(string(body), "job "+doc.ID) ||
		!strings.Contains(string(body), "  system ldapd") {
		t.Errorf("text trace missing tree lines:\n%s", body)
	}

	if _, err := os.Stat(filepath.Join(dir, "jobs", doc.ID+".trace.json")); err != nil {
		t.Errorf("trace not persisted: %v", err)
	}
}

// TestLiveTraceIsATree reads a cold job's trace in a loop while the
// job runs: prepare goroutines and engine workers open spans while the
// handler copies them, and every copy must be a tree whose spans each
// follow their parent. Run it under -race.
func TestLiveTraceIsATree(t *testing.T) {
	_, ts := daemon(t, server.Config{StateDir: t.TempDir()})
	doc := postJob(t, ts.URL, `{"all": true, "workers": 2}`)
	sse := collect(t, ts.URL+"/v1/jobs/"+doc.ID+"/events", 0)
	sse.waitFor(t, "the running frame", func(e dash.Event) bool {
		return e.Kind == dash.KindJob && e.State == server.StateRunning
	}, time.Minute)

	live := 0
	for deadline := time.Now().Add(2 * time.Minute); ; live++ {
		if time.Now().After(deadline) {
			t.Fatal("the job span never ended")
		}
		tdoc := getTrace(t, ts.URL, doc.ID)
		seen := map[string]bool{}
		for i, sp := range tdoc.Spans {
			if (i == 0) != (sp.Parent == "") || (i > 0 && !seen[sp.Parent]) || seen[sp.ID] {
				t.Fatalf("read %d: span %d (%s %s, id %s) has parent %q, seen before it: %v",
					live, i, sp.Kind, sp.Name, sp.ID, sp.Parent, seen)
			}
			seen[sp.ID] = true
		}
		if tdoc.Spans[0].Status != "" {
			break // the job span ended: the trace is final
		}
	}
	if live == 0 {
		t.Error("no read overlapped the running job")
	}
	if final := waitTerminal(t, ts.URL, doc.ID, time.Minute); final.State != server.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	t.Logf("%d reads while the job ran", live)
}

// TestMetricsEndpoint: GET /metrics serves Prometheus text covering
// every instrumented layer the daemon links.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts := daemon(t, server.Config{StateDir: dir, Workers: 2})

	doc := postJob(t, ts.URL, `{"systems": ["ldapd"], "workers": 2}`)
	waitTerminal(t, ts.URL, doc.ID, 2*time.Minute)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content-type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	families := make(map[string]bool)
	for _, line := range strings.Split(string(body), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(name)[0]] = true
		}
	}
	// One family per instrumented layer proves the whole stack is
	// linked into the exposition.
	for _, want := range []string{
		"spex_engine_tasks_total",
		"spex_store_saves_total",
		"spex_dash_events_total",
		"spex_sim_boots_total",
		"spex_campaign_outcomes_fresh_total",
		"spex_http_requests_total",
		"spex_jobs_total",
		"spex_job_seconds",
	} {
		if !families[want] {
			t.Errorf("/metrics missing family %s", want)
		}
	}
	if len(families) < 20 {
		t.Errorf("/metrics exposes %d families, want >= 20", len(families))
	}
}
