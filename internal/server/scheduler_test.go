package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/dash"
	"spex/internal/obs"
	"spex/internal/server"
)

// statusDoc is the subset of GET /v1/status the scheduler tests read.
type statusDoc struct {
	Namespace string   `json:"namespace"`
	Systems   []string `json:"systems"`
}

func getStatus(t *testing.T, base, path string) statusDoc {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	var doc statusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// postJobAt submits a job to an arbitrary jobs route (namespaced or
// not).
func postJobAt(t *testing.T, url, spec string) server.Job {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, body)
	}
	var doc server.Job
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("job document: %v\n%s", err, body)
	}
	return doc
}

// TestDisjointJobsRunConcurrently: two jobs over disjoint systems must
// both be running at once under the default quota — the scheduler must
// not serialize what does not conflict. While they run, the namespace
// lock is the only lock file and still refuses every other writer.
func TestDisjointJobsRunConcurrently(t *testing.T) {
	dir := t.TempDir()
	_, ts := daemon(t, server.Config{StateDir: dir})

	// The delay holds the first campaign open long enough for the
	// second to start beside it.
	bus := collect(t, ts.URL+"/v1/events", 0)
	j1 := postJob(t, ts.URL, `{"systems": ["proxyd"], "workers": 1, "sim_delay": "5ms"}`)
	j2 := postJob(t, ts.URL, `{"systems": ["ldapd"], "workers": 1, "sim_delay": "5ms"}`)
	bus.waitFor(t, "a reservation with two jobs running", func(e dash.Event) bool {
		return e.Kind == dash.KindSched && e.Sched.Op == "reserve" && e.Sched.Running >= 2
	}, time.Minute)
	// A job publishes "running" once it holds its write capability.
	for _, id := range []string{j1.ID, j2.ID} {
		bus.waitFor(t, id+" running", func(e dash.Event) bool {
			return e.Job == id && e.Kind == dash.KindJob && e.State == server.StateRunning
		}, time.Minute)
	}
	bus.stop()

	store, err := campaignstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lk, err := store.Lock(); err == nil {
		lk.Unlock()
		t.Fatal("a second writer locked the daemon's state directory while jobs ran")
	} else if !strings.Contains(err.Error(), "locked by pid") {
		t.Fatalf("second writer refused for the wrong reason: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".spex.lock") && e.Name() != filepath.Base(campaignstore.LockPath(dir)) {
			t.Errorf("lock file %s beside the namespace lock", e.Name())
		}
	}

	// Nothing left to observe: cancel instead of waiting out the
	// delayed campaigns (a job that already finished answers 409).
	for _, id := range []string{j1.ID, j2.ID} {
		req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if final := waitTerminal(t, ts.URL, id, time.Minute); final.State != server.StateCancelled && final.State != server.StateDone {
			t.Fatalf("job %s ended %s: %s", id, final.State, final.Error)
		}
	}
}

// TestSharedSystemJobsSerialize: two jobs over the same system must
// serialize on its lock — never both running — and the store must end
// up byte-for-byte where a strictly sequential submission lands it
// (same snapshot fingerprints, job by job).
func TestSharedSystemJobsSerialize(t *testing.T) {
	dirA := t.TempDir()
	_, tsA := daemon(t, server.Config{StateDir: dirA})

	// Concurrent submission: both land in the queue in one breath; the
	// scheduler may only dispatch one at a time, so no scheduler
	// transition may ever count two running jobs.
	bus := collect(t, tsA.URL+"/v1/events", 0)
	a1 := postJob(t, tsA.URL, `{"systems": ["ldapd"], "workers": 2, "sim_delay": "2ms"}`)
	a2 := postJob(t, tsA.URL, `{"systems": ["ldapd"], "workers": 2, "sim_delay": "2ms"}`)
	finalA1 := waitTerminal(t, tsA.URL, a1.ID, time.Minute)
	finalA2 := waitTerminal(t, tsA.URL, a2.ID, time.Minute)
	// The release follows the job's terminal event: it ends the run's
	// scheduler history.
	bus.waitFor(t, "the second job's release", func(e dash.Event) bool {
		return e.Job == a2.ID && e.Kind == dash.KindSched && e.Sched.Op == "release"
	}, time.Minute)
	for _, e := range bus.stop() {
		if e.Kind == dash.KindSched && e.Sched.Running > 1 {
			t.Fatalf("shared-system jobs ran concurrently: %s %s with %d running", e.Sched.Op, e.Job, e.Sched.Running)
		}
	}
	for _, doc := range []server.Job{finalA1, finalA2} {
		if doc.State != server.StateDone {
			t.Fatalf("job %s ended %s: %s", doc.ID, doc.State, doc.Error)
		}
	}

	// Reference run: the same two jobs strictly one after the other in
	// a fresh directory.
	dirB := t.TempDir()
	_, tsB := daemon(t, server.Config{StateDir: dirB})
	b1 := postJob(t, tsB.URL, `{"systems": ["ldapd"], "workers": 2, "sim_delay": "2ms"}`)
	finalB1 := waitTerminal(t, tsB.URL, b1.ID, time.Minute)
	b2 := postJob(t, tsB.URL, `{"systems": ["ldapd"], "workers": 2, "sim_delay": "2ms"}`)
	finalB2 := waitTerminal(t, tsB.URL, b2.ID, time.Minute)

	fp := func(doc server.Job) string {
		if len(doc.Systems) != 1 {
			t.Fatalf("job %s summarizes %d systems", doc.ID, len(doc.Systems))
		}
		return doc.Systems[0].Fingerprint
	}
	if fp(finalA1) != fp(finalB1) || fp(finalA2) != fp(finalB2) {
		t.Fatalf("concurrent-submission fingerprints diverge from sequential: %s/%s vs %s/%s",
			fp(finalA1), fp(finalA2), fp(finalB1), fp(finalB2))
	}
	// The second job is a pure replay of the first either way.
	if finalA2.Systems[0].Executed != 0 {
		t.Errorf("second job executed fresh work after serialization: %+v", finalA2.Systems[0])
	}
}

// TestStagedJobPipelinesPerSystem: a stages: [...] job must pipeline
// per system — the small system (ldapd, 43 misconfigurations) reaches
// eval while the big one (proxyd, 154) is still injecting — instead of
// holding every system at a stage barrier, and it must do so on the
// job's one pool: with workers: 1, no two misconfigurations run at once.
// Both summaries carry testdata/golden's outcome count and fingerprint.
func TestStagedJobPipelinesPerSystem(t *testing.T) {
	dir := t.TempDir()
	_, ts := daemon(t, server.Config{StateDir: dir})

	doc := postJob(t, ts.URL,
		`{"systems": ["ldapd", "proxyd"], "workers": 1, "sim_delay": "2ms", "stages": ["infer", "inject", "eval"]}`)
	sse := collect(t, ts.URL+"/v1/jobs/"+doc.ID+"/events", 0)
	final := waitTerminal(t, ts.URL, doc.ID, 2*time.Minute)
	if final.State != server.StateDone {
		t.Fatalf("staged job ended %s: %s", final.State, final.Error)
	}

	events := sse.wait(t)
	// Index stage transitions in stream order.
	pos := map[string]int{}
	for i, e := range events {
		if e.Kind != dash.KindStage || e.Stage == nil {
			continue
		}
		key := e.Stage.System + "/" + e.Stage.Stage + "/" + e.Stage.State
		if _, seen := pos[key]; !seen {
			pos[key] = i
		}
	}
	for _, sys := range []string{"ldapd", "proxyd"} {
		last := -1
		for _, step := range []string{
			"infer/running", "infer/done",
			"inject/running", "inject/done",
			"eval/running", "eval/done",
		} {
			i, ok := pos[sys+"/"+step]
			if !ok {
				t.Fatalf("no stage event %s/%s (stages seen: %v)", sys, step, pos)
			}
			if i < last {
				t.Errorf("stage event %s/%s out of order", sys, step)
			}
			last = i
		}
	}
	// The pipelining claim itself: ldapd finishes its whole pipeline
	// before proxyd finishes injecting. A stage barrier would force
	// ldapd's eval to wait on proxyd's inject.
	if pos["ldapd/eval/done"] > pos["proxyd/inject/done"] {
		t.Errorf("no pipelining: ldapd eval done at %d, after proxyd inject done at %d",
			pos["ldapd/eval/done"], pos["proxyd/inject/done"])
	}
	t.Logf("ldapd eval done at frame %d, proxyd inject done at frame %d", pos["ldapd/eval/done"], pos["proxyd/inject/done"])

	if got, want := summarized(final), pinned(t, "ldapd", "proxyd"); !maps.Equal(got, want) {
		t.Errorf("the staged job summarizes %v, testdata/golden/stores.txt pins %v", got, want)
	}

	// The workers bound: the job's trace holds one span per executed
	// misconfiguration, and with one worker they never overlap.
	var spans []obs.SpanDoc
	for _, sp := range getTrace(t, ts.URL, doc.ID).Spans {
		if sp.Kind == obs.SpanMisconf {
			spans = append(spans, sp)
		}
	}
	if len(spans) == 0 {
		t.Fatal("trace holds no misconf spans")
	}
	sort.Slice(spans, func(i, k int) bool { return spans[i].Start.Before(spans[k].Start) })
	end := spans[0].End
	for _, sp := range spans[1:] {
		if sp.Start.Before(end) {
			t.Fatalf("misconf %s started at %v while another ran until %v: more than one at once under workers: 1",
				sp.Name, sp.Start, end)
		}
		if sp.End.After(end) {
			end = sp.End
		}
	}
}

// TestJobDAGNeeds: needs: [...] edges delay a job until its
// dependency finishes, and a cancelled dependency fails the dependent.
func TestJobDAGNeeds(t *testing.T) {
	dir := t.TempDir()
	// One slot so the blocker keeps the queue still while the DAG is
	// arranged.
	_, ts := daemon(t, server.Config{StateDir: dir, MaxConcurrentJobs: 1})

	blocker := postJob(t, ts.URL, `{"systems": ["proxyd"], "workers": 1, "sim_delay": "5ms"}`)
	dep := postJob(t, ts.URL, `{"systems": ["ldapd"]}`)
	child := postJob(t, ts.URL, fmt.Sprintf(`{"systems": ["ldapd"], "needs": [%q]}`, dep.ID))

	// A dependency on an unknown job is rejected at submission.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"systems": ["ldapd"], "needs": ["job-999999"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("needs unknown job: %d, want 400", resp.StatusCode)
	}

	// Cancel the dependency while it is still queued: the child must
	// fail, not run.
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+dep.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE queued dependency: %d, want 200", dresp.StatusCode)
	}
	childFinal := waitTerminal(t, ts.URL, child.ID, time.Minute)
	if childFinal.State != server.StateFailed || !strings.Contains(childFinal.Error, "cancelled") {
		t.Fatalf("child of cancelled dependency: %s %q", childFinal.State, childFinal.Error)
	}

	// The blocker has served its purpose: cancel it to free the slot.
	breq, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+blocker.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	bresp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if final := waitTerminal(t, ts.URL, blocker.ID, time.Minute); final.State != server.StateCancelled {
		t.Fatalf("blocker ended %s: %s", final.State, final.Error)
	}

	// The happy path: a job needing a finished job runs and replays it.
	dep2 := postJob(t, ts.URL, `{"systems": ["ldapd"]}`)
	if final := waitTerminal(t, ts.URL, dep2.ID, time.Minute); final.State != server.StateDone {
		t.Fatalf("dep2 ended %s: %s", final.State, final.Error)
	}
	child2 := postJob(t, ts.URL, fmt.Sprintf(`{"systems": ["ldapd"], "needs": [%q]}`, dep2.ID))
	child2Final := waitTerminal(t, ts.URL, child2.ID, time.Minute)
	if child2Final.State != server.StateDone {
		t.Fatalf("child2 ended %s: %s", child2Final.State, child2Final.Error)
	}
	if len(child2Final.Systems) != 1 || child2Final.Systems[0].Executed != 0 {
		t.Errorf("child2 should replay its dependency's outcomes: %+v", child2Final.Systems)
	}
}

// TestNamespaceIsolation: namespaced routes address their own state
// directory under the root; the default namespace keeps the bare /v1
// URLs and the root layout.
func TestNamespaceIsolation(t *testing.T) {
	dir := t.TempDir()
	s, ts := daemon(t, server.Config{StateDir: dir})

	// POST creates the namespace; its store lives at <root>/alpha.
	doc := postJobAt(t, ts.URL+"/v1/ns/alpha/jobs", `{"systems": ["ldapd"], "workers": 2}`)
	if doc.Namespace != "alpha" {
		t.Fatalf("job namespace %q, want alpha", doc.Namespace)
	}
	if got := waitTerminalAt(t, ts.URL+"/v1/ns/alpha/jobs/"+doc.ID, time.Minute); got.State != server.StateDone {
		t.Fatalf("namespaced job ended %s: %s", got.State, got.Error)
	}

	// The snapshot landed under the namespace directory, not the root.
	if _, err := os.Stat(filepath.Join(dir, "alpha", "ldapd.campaign.snap")); err != nil {
		t.Errorf("namespaced snapshot missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ldapd.campaign.snap")); err == nil {
		t.Error("namespaced job wrote into the root store")
	}

	// Each namespace sees only its own systems and jobs.
	if st := getStatus(t, ts.URL, "/v1/ns/alpha/status"); st.Namespace != "alpha" || len(st.Systems) != 1 {
		t.Errorf("alpha status: %+v", st)
	}
	if st := getStatus(t, ts.URL, "/v1/status"); st.Namespace != server.DefaultNamespace || len(st.Systems) != 0 {
		t.Errorf("default status sees alpha's state: %+v", st)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("default namespace served alpha's job: %d", resp.StatusCode)
	}

	// Reads on an unknown namespace 404; invalid names 400.
	resp, err = http.Get(ts.URL + "/v1/ns/nope/systems")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown namespace: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/ns/Bad.Name/jobs", "application/json",
		strings.NewReader(`{"systems": ["ldapd"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid namespace name: %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/ns/jobs/jobs", "application/json",
		strings.NewReader(`{"systems": ["ldapd"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reserved namespace name: %d, want 400", resp.StatusCode)
	}

	// The namespace listing names both tenants.
	nresp, err := http.Get(ts.URL + "/v1/ns")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Namespaces []struct {
			Name string `json:"name"`
		} `json:"namespaces"`
	}
	err = json.NewDecoder(nresp.Body).Decode(&listing)
	nresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, n := range listing.Namespaces {
		names[n.Name] = true
	}
	if !names[server.DefaultNamespace] || !names["alpha"] {
		t.Errorf("namespace listing %v, want default and alpha", names)
	}

	// A restarted daemon rediscovers the namespace from its journal
	// directory.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	_, ts2 := daemon(t, server.Config{StateDir: dir})
	if st := getStatus(t, ts2.URL, "/v1/ns/alpha/status"); st.Namespace != "alpha" || len(st.Systems) != 1 {
		t.Errorf("restarted daemon lost namespace alpha: %+v", st)
	}
}

// TestRestartRequeuesQueuedJobs is the journal-adoption contract: a
// daemon that died leaves running jobs behind as failed (resubmit to
// resume), but a job that never left the queue — no lock claimed, no
// outcome written — is re-queued and runs under the new daemon. A
// document is a job only under its own file name: one whose id escapes
// the journal, or repeats another file's job, is skipped.
func TestRestartRequeuesQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	jobsDir := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(file string, doc server.Job) {
		t.Helper()
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jobsDir, file), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	created := time.Now().UTC().Add(-time.Hour)
	started := created.Add(time.Minute)
	// job-000001 was mid-campaign when the old daemon died; job-000002
	// and job-000003 never started, and job-000003's spec does not
	// validate.
	write("job-000001.json", server.Job{
		ID:        "job-000001",
		Spec:      server.JobSpec{Systems: []string{"ldapd"}},
		State:     server.StateRunning,
		CreatedAt: created,
		StartedAt: &started,
	})
	queued := server.Job{
		ID:        "job-000002",
		Spec:      server.JobSpec{Systems: []string{"ldapd"}, Workers: 2},
		State:     server.StateQueued,
		CreatedAt: created,
	}
	write("job-000002.json", queued)
	write("job-000003.json", server.Job{
		ID:        "job-000003",
		Spec:      server.JobSpec{Systems: []string{"ldapd"}, Coordinate: 3000},
		State:     server.StateQueued,
		CreatedAt: created,
	})
	// Not jobs: an id that would rewrite a file outside the state
	// directory, and a second file claiming job-000002.
	write("job-000010.json", server.Job{
		ID:        "../../escape",
		Spec:      server.JobSpec{Systems: []string{"ldapd"}},
		State:     server.StateRunning,
		CreatedAt: created,
	})
	write("job-000011.json", queued)

	_, ts := daemon(t, server.Config{StateDir: dir})

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []server.Job `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, j := range listing.Jobs {
		ids = append(ids, j.ID)
	}
	if strings.Join(ids, " ") != "job-000001 job-000002 job-000003" {
		t.Errorf("restarted daemon lists jobs %v, want [job-000001 job-000002 job-000003]", ids)
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape.json")); !os.IsNotExist(err) {
		t.Errorf("journal adoption wrote outside the state directory: %v", err)
	}

	if doc := getJob(t, ts.URL, "job-000001"); doc.State != server.StateFailed ||
		!strings.Contains(doc.Error, "daemon stopped") {
		t.Fatalf("interrupted running job: %s %q, want failed", doc.State, doc.Error)
	}
	if doc := getJob(t, ts.URL, "job-000003"); doc.State != server.StateFailed ||
		!strings.Contains(doc.Error, "exceeds the limit") {
		t.Fatalf("queued job with an invalid spec: %s %q, want failed", doc.State, doc.Error)
	}
	final := waitTerminal(t, ts.URL, "job-000002", time.Minute)
	if final.State != server.StateDone {
		t.Fatalf("re-queued job ended %s: %s", final.State, final.Error)
	}
	if len(final.Systems) != 1 || final.Systems[0].Outcomes == 0 {
		t.Fatalf("re-queued job produced no outcomes: %+v", final.Systems)
	}
	// New submissions continue the journal's ID sequence.
	if doc := postJob(t, ts.URL, `{"systems": ["ldapd"]}`); doc.ID != "job-000004" {
		t.Errorf("next job ID %s, want job-000004", doc.ID)
	}
}
