package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"spex/internal/dash"
	"spex/internal/server"
)

// jobDone matches the terminal lifecycle event of one (ns, job).
func jobDone(ns, id string) func(dash.Event) bool {
	return func(e dash.Event) bool {
		return e.Namespace == ns && e.Kind == dash.KindJob && e.Job == id && e.State == server.StateDone
	}
}

// TestBusAggregateTwoNamespaces replays a two-job run across two
// namespaces against the aggregate stream: one subscription carries
// both tenants' lifecycles, per-job event order holds, the scheduler's
// reserve/release transitions appear, and progress is folded in.
func TestBusAggregateTwoNamespaces(t *testing.T) {
	t.Parallel()
	_, ts := daemon(t, server.Config{StateDir: t.TempDir()})

	c := collect(t, ts.URL+"/v1/events", 0)
	doc1 := postJob(t, ts.URL, `{"systems": ["proxyd"], "workers": 4}`)
	doc2 := postJobAt(t, ts.URL+"/v1/ns/tenant2/jobs", `{"systems": ["ldapd"], "workers": 4}`)

	// The scheduler's release publishes after the job's terminal event,
	// so it is the true end of each job's bus footprint.
	released := func(ns, id string) func(dash.Event) bool {
		return func(e dash.Event) bool {
			return e.Namespace == ns && e.Job == id && e.Kind == dash.KindSched && e.Sched.Op == "release"
		}
	}
	c.waitFor(t, "job 1 released", released("default", doc1.ID), time.Minute)
	c.waitFor(t, "job 2 released", released("tenant2", doc2.ID), time.Minute)
	events := c.stop()

	// Per-job assertions: lifecycle order and the scheduler envelope.
	for _, want := range []struct{ ns, id string }{
		{"default", doc1.ID}, {"tenant2", doc2.ID},
	} {
		var states []string
		var schedOps []string
		progress := 0
		var lastSeq uint64
		for _, e := range events {
			if e.Namespace != want.ns || e.Job != want.id {
				continue
			}
			if e.Seq <= lastSeq {
				t.Errorf("%s/%s: bus seq went backwards (%d after %d)", want.ns, want.id, e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			if e.V != dash.SchemaVersion {
				t.Errorf("%s/%s: event schema version %d", want.ns, want.id, e.V)
			}
			switch e.Kind {
			case dash.KindJob:
				states = append(states, e.State)
			case dash.KindSched:
				schedOps = append(schedOps, e.Sched.Op)
			case dash.KindProgress:
				progress++
				if e.Progress == nil || e.Progress.System == "" {
					t.Errorf("%s/%s: progress event without a sample", want.ns, want.id)
				}
			}
		}
		if got := strings.Join(states, " "); got != "queued running done" {
			t.Errorf("%s/%s lifecycle = %q, want \"queued running done\"", want.ns, want.id, got)
		}
		if got := strings.Join(schedOps, " "); got != "queue reserve release" {
			t.Errorf("%s/%s sched ops = %q, want \"queue reserve release\"", want.ns, want.id, got)
		}
		if progress == 0 {
			t.Errorf("%s/%s: no progress events folded onto the bus", want.ns, want.id)
		}
	}
}

// TestBusNamespaceIsolation: /v1/ns/{ns}/events carries exactly that
// tenant's stream even while another namespace is busy.
func TestBusNamespaceIsolation(t *testing.T) {
	t.Parallel()
	_, ts := daemon(t, server.Config{StateDir: t.TempDir()})

	// Create tenant2 first so its filtered stream can attach (reads on
	// an unknown namespace 404).
	doc2 := postJobAt(t, ts.URL+"/v1/ns/tenant2/jobs", `{"systems": ["ldapd"], "workers": 4}`)
	c := collect(t, ts.URL+"/v1/ns/tenant2/events", 0)
	doc1 := postJob(t, ts.URL, `{"systems": ["proxyd"], "workers": 4}`)

	waitTerminal(t, ts.URL, doc1.ID, time.Minute)
	c.waitFor(t, "tenant2 job done", jobDone("tenant2", doc2.ID), time.Minute)
	for _, e := range c.stop() {
		if e.Namespace != "tenant2" {
			t.Errorf("namespace-filtered stream leaked an event from %q: %+v", e.Namespace, e)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/ns/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("events on an unknown namespace: %d, want 404", resp.StatusCode)
	}
}

// TestBusResumeLastEventID: a subscriber that reconnects with the last
// id it saw replays only what it missed, from the bus's ring.
func TestBusResumeLastEventID(t *testing.T) {
	t.Parallel()
	_, ts := daemon(t, server.Config{StateDir: t.TempDir()})

	c1 := collect(t, ts.URL+"/v1/events", 0)
	doc1 := postJob(t, ts.URL, `{"systems": ["proxyd"], "workers": 4}`)
	c1.waitFor(t, "first job done", jobDone("default", doc1.ID), time.Minute)
	first := c1.stop()
	lastSeq := first[len(first)-1].Seq

	// The "dropped connection": everything after lastSeq happens while
	// no subscriber is attached.
	doc2 := postJob(t, ts.URL, `{"systems": ["ldapd"], "workers": 4}`)
	waitTerminal(t, ts.URL, doc2.ID, time.Minute)

	c2 := collect(t, ts.URL+"/v1/events", lastSeq)
	c2.waitFor(t, "second job done after resume", jobDone("default", doc2.ID), time.Minute)
	for _, e := range c2.stop() {
		if e.Seq <= lastSeq {
			t.Errorf("resume replayed already-seen seq %d (resumed after %d)", e.Seq, lastSeq)
		}
		if e.Job == doc1.ID && e.Kind == dash.KindJob {
			t.Errorf("resume replayed the first job's lifecycle: %+v", e)
		}
	}
}

// TestJobEventsTerminalResume covers the per-job stream, a
// job-filtered slice of the bus: a subscription to an already-terminal
// job replays the job's lifecycle through its final job frame and
// closes cleanly, frames carry the bus seq as their id, and
// Last-Event-ID resume past the final frame replays nothing.
func TestJobEventsTerminalResume(t *testing.T) {
	t.Parallel()
	_, ts := daemon(t, server.Config{StateDir: t.TempDir()})
	doc := postJob(t, ts.URL, `{"systems": ["proxyd"], "workers": 4}`)
	waitTerminal(t, ts.URL, doc.ID, time.Minute)

	events := collect(t, ts.URL+"/v1/jobs/"+doc.ID+"/events", 0).wait(t)
	if len(events) == 0 {
		t.Fatal("terminal job stream delivered nothing")
	}
	var states []string
	for _, e := range events {
		if e.Seq == 0 || e.V != dash.SchemaVersion || e.Job != doc.ID {
			t.Fatalf("job stream frame without a bus seq, schema version, or its job: %+v", e)
		}
		if e.Kind == dash.KindJob {
			states = append(states, e.State)
		}
	}
	if got := strings.Join(states, " "); got != "queued running done" {
		t.Errorf("replayed lifecycle %q, want \"queued running done\"", got)
	}
	last := events[len(events)-1]
	if last.Kind != dash.KindJob || last.State != server.StateDone {
		t.Fatalf("terminal stream ended with %+v, want the done job frame", last)
	}

	// Resuming after the final frame replays nothing and still closes.
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+doc.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.FormatUint(last.Seq, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "data: ") {
		t.Errorf("resume past the final event replayed data:\n%s", body)
	}
}

// TestJournaledJobStreamIsOneTerminalFrame: a job journaled by a
// previous daemon run never went through this daemon's bus, so its
// stream is one terminal job frame built from the journal, then the
// close.
func TestJournaledJobStreamIsOneTerminalFrame(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	done := time.Now().UTC().Add(-time.Minute).Truncate(time.Second)
	data, err := json.Marshal(server.Job{
		ID:        "job-000001",
		Spec:      server.JobSpec{Systems: []string{"ldapd"}},
		State:     server.StateFailed,
		Error:     "boom",
		CreatedAt: done.Add(-time.Minute),
		DoneAt:    &done,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "job-000001.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := daemon(t, server.Config{StateDir: dir})

	events := collect(t, ts.URL+"/v1/jobs/job-000001/events", 0).wait(t)
	if len(events) != 1 {
		t.Fatalf("journaled job stream carried %d frames, want 1: %+v", len(events), events)
	}
	e := events[0]
	if e.V != dash.SchemaVersion || e.Kind != dash.KindJob || e.Namespace != server.DefaultNamespace ||
		e.Job != "job-000001" || e.State != server.StateFailed || e.Error != "boom" || !e.Time.Equal(done) {
		t.Errorf("journaled terminal frame %+v, want the journal's failed state at %s", e, done)
	}
}

// TestUIMountedOnDaemon: the embedded dashboard serves from the
// daemon's own mux with the ETag/304 read discipline.
func TestUIMountedOnDaemon(t *testing.T) {
	t.Parallel()
	_, ts := daemon(t, server.Config{StateDir: t.TempDir()})

	resp, err := http.Get(ts.URL + "/ui/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /ui/: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "spex dashboard") {
		t.Error("dashboard page missing its title")
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on /ui/")
	}
	req, err := http.NewRequest("GET", ts.URL+"/ui/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("/ui/ revalidation: %d, want 304", resp2.StatusCode)
	}
}
