package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/dash"
)

// binDir holds the spexd, spexeval, spexinj and spexwatch binaries
// TestMain builds once.
var binDir string

func TestMain(m *testing.M) { os.Exit(buildAndRun(m)) }

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "spexd-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"spex/cmd/spexd", "spex/cmd/spexeval", "spex/cmd/spexinj", "spex/cmd/spexwatch")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building spexd, spexeval, spexinj and spexwatch: %v\n%s", err, out)
		return 1
	}
	binDir = dir
	return m.Run()
}

// servingRE matches the line spexd prints once its listener is bound.
var servingRE = regexp.MustCompile(`^spexd: serving .* on (http://\S+)$`)

// daemonProc is one spexd process and what it has written to stderr.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once the process has been waited for
	err    error         // the exit error, set before exited closes

	mu     sync.Mutex
	stderr bytes.Buffer
}

// log returns everything the daemon has written to stderr so far.
func (d *daemonProc) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// startDaemon runs spexd on state with an OS-chosen port and any extra
// flags, and returns once it has printed the address it is serving on.
func startDaemon(t *testing.T, state string, flags ...string) *daemonProc {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "spexd"), append([]string{"-state", state, "-addr", "127.0.0.1:0"}, flags...)...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemonProc{cmd: cmd, exited: make(chan struct{})}
	ready := make(chan string, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil {
				select {
				case ready <- m[1]:
				default:
				}
			}
		}
	}()
	go func() {
		<-scanned // Wait closes the pipe, so read it to the end first
		d.err = cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		select {
		case <-d.exited:
		default:
			_ = cmd.Process.Kill()
			<-d.exited
		}
	})
	select {
	case d.base = <-ready:
	case <-d.exited:
		t.Fatalf("spexd exited before serving (%v):\n%s", d.err, d.log())
	case <-time.After(time.Minute):
		t.Fatalf("spexd printed no serving line within a minute:\n%s", d.log())
	}
	return d
}

// client bounds every request; a job's event stream is the longest.
var client = &http.Client{Timeout: 2 * time.Minute}

// get fetches url and returns the status, headers and body.
func get(t *testing.T, url string, header ...string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// mustGet is get for a request that must answer 200; it returns the
// body.
func mustGet(t *testing.T, url string) string {
	t.Helper()
	code, _, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, code, body)
	}
	return body
}

// submit posts a job spec to a jobs collection URL and returns the
// job's ID.
func submit(t *testing.T, url, spec string) string {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil || doc.ID == "" {
		t.Fatalf("POST %s %s: status %d, id %q, %v", url, spec, resp.StatusCode, doc.ID, err)
	}
	return doc.ID
}

// finish reads the event stream of the job at jobURL to the end (the
// stream closes after the job's terminal frame), checks that the job is
// done, and returns the stream.
func finish(t *testing.T, jobURL string) string {
	t.Helper()
	events := mustGet(t, jobURL+"/events")
	var final struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, jobURL)), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("job %s ended %s: %s", jobURL, final.State, final.Error)
	}
	return events
}

// runJob runs an all-systems job to the end and returns its ID and
// event stream.
func runJob(t *testing.T, base string) (string, string) {
	t.Helper()
	id := submit(t, base+"/v1/jobs", `{"all": true, "workers": 2}`)
	return id, finish(t, base+"/v1/jobs/"+id)
}

// frames decodes the data lines of an SSE stream.
func frames(t *testing.T, stream string) []dash.Event {
	t.Helper()
	var out []dash.Event
	for _, line := range strings.Split(stream, "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var e dash.Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatalf("event frame %s: %v", data, err)
			}
			out = append(out, e)
		}
	}
	return out
}

// subscribe opens the event stream at url and delivers its events as
// they arrive, until stop (also run at cleanup) closes the stream.
func subscribe(t *testing.T, url string) (events <-chan dash.Event, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	// No client timeout: the stream lives until stop.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	ch := make(chan dash.Event)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var e dash.Event
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok || json.Unmarshal([]byte(data), &e) != nil {
				continue
			}
			select {
			case ch <- e:
			case <-ctx.Done():
				return
			}
		}
	}()
	stop = func() {
		cancel()
		for range ch {
		}
	}
	t.Cleanup(stop)
	return ch, stop
}

// terminate sends SIGTERM to the daemon and checks that it drains and
// exits 0 within a minute.
func terminate(t *testing.T, d *daemonProc) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		t.Fatalf("spexd did not drain within a minute of SIGTERM:\n%s", d.log())
	}
	if d.err != nil {
		t.Fatalf("spexd exited with %v after SIGTERM:\n%s", d.err, d.log())
	}
}

// spexevalMatches runs spexeval with args and checks that it prints
// want.
func spexevalMatches(t *testing.T, want string, args ...string) {
	t.Helper()
	out, err := exec.Command(filepath.Join(binDir, "spexeval"), args...).Output()
	if err != nil {
		t.Fatalf("spexeval %s: %v", strings.Join(args, " "), err)
	}
	if string(out) != want {
		t.Errorf("spexeval %s differs from the served table:\n%s", strings.Join(args, " "), out)
	}
}

// metrics scrapes /metrics into its sample values by series name.
func metrics(t *testing.T, base string) (map[string]float64, string) {
	t.Helper()
	page := mustGet(t, base+"/metrics")
	return samples(page), page
}

// samples parses Prometheus text (a /metrics page or a -metrics-out
// dump) into its sample values by series name.
func samples(page string) map[string]float64 {
	values := map[string]float64{}
	for _, line := range strings.Split(page, "\n") {
		name, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			values[name] = f
		}
	}
	return values
}

// TestDaemonServesAndDrains runs spexd as its own process: an
// all-systems job streams progress and a versioned terminal frame, the
// daemon serves the paper's table 5, the cross-system query, ETag
// revalidation and the job's trace, a second job replays the store, and
// /metrics spans the layers. SIGTERM drains the daemon and releases the
// state lock, and spexeval renders the drained store's table 5, from
// snapshots and from the index, byte for byte as served.
func TestDaemonServesAndDrains(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state")
	d := startDaemon(t, state)

	job, events := runJob(t, d.base)
	if !strings.Contains(events, "event: progress") {
		t.Errorf("the job's stream carries no progress frames:\n%s", events)
	}
	var frame []string // the stream's lines, blank lines and comments dropped
	for _, line := range strings.Split(events, "\n") {
		if line != "" && !strings.HasPrefix(line, ":") {
			frame = append(frame, line)
		}
	}
	if len(frame) < 3 {
		t.Fatalf("the job's stream is too short:\n%s", events)
	}
	last := frame[len(frame)-3:]
	if !strings.HasPrefix(last[0], "id: ") || last[1] != "event: job" ||
		!strings.Contains(last[2], `"v":1`) || !strings.Contains(last[2], `"state":"done"`) {
		t.Errorf("the stream does not end with a v1 done job frame:\n%s", strings.Join(last, "\n"))
	}

	golden, err := os.ReadFile("../../testdata/golden/table05.txt")
	if err != nil {
		t.Fatal(err)
	}
	table := mustGet(t, d.base+"/v1/tables/5?format=text")
	if table != string(golden) {
		t.Errorf("served table 5 differs from testdata/golden/table05.txt:\n%s", table)
	}

	var query struct {
		Groups []struct {
			Param   string   `json:"param"`
			Systems []string `json:"systems"`
		} `json:"groups"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, d.base+"/v1/query?min-systems=2")), &query); err != nil {
		t.Fatal(err)
	}
	if len(query.Groups) == 0 {
		t.Error("the cross-system query found no groups")
	}
	for _, g := range query.Groups {
		if g.Param == "" || len(g.Systems) < 2 {
			t.Errorf("query group %+v: want a parameter in at least two systems", g)
		}
	}

	_, header, _ := get(t, d.base+"/v1/tables/5?format=text")
	etag := header.Get("ETag")
	if etag == "" {
		t.Error("table 5 carries no ETag")
	} else if code, _, _ := get(t, d.base+"/v1/tables/5?format=text", "If-None-Match", etag); code != http.StatusNotModified {
		t.Errorf("revalidating table 5 with its ETag answered %d, want 304", code)
	}

	var trace struct {
		Spans []struct {
			Kind string `json:"kind"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, d.base+"/v1/jobs/"+job+"/trace")), &trace); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, s := range trace.Spans {
		kinds[s.Kind]++
	}
	if kinds["job"] != 1 || kinds["system"] == 0 {
		t.Errorf("the trace has %d job and %d system spans, want 1 and some", kinds["job"], kinds["system"])
	}
	text := mustGet(t, d.base+"/v1/jobs/"+job+"/trace?format=text")
	if !regexp.MustCompile(`(?m)^job `).MatchString(text) || !regexp.MustCompile(`(?m)^  system `).MatchString(text) {
		t.Errorf("the text trace lacks a job line or an indented system line:\n%s", text)
	}

	// A second identical job replays everything the first one saved.
	before, _ := metrics(t, d.base)
	if before["spex_campaign_outcomes_fresh_total"] <= 0 {
		t.Error("/metrics counts no fresh outcomes after the first job")
	}
	runJob(t, d.base)
	after, page := metrics(t, d.base)
	if r := after["spex_campaign_outcomes_replayed_total"] - before["spex_campaign_outcomes_replayed_total"]; r <= 0 {
		t.Errorf("the second job replayed %v outcomes, want some", r)
	}
	if f := after["spex_campaign_outcomes_fresh_total"] - before["spex_campaign_outcomes_fresh_total"]; f != 0 {
		t.Errorf("the second job ran %v fresh outcomes, want 0", f)
	}
	if n := strings.Count(page, "\n# TYPE spex_"); n < 20 {
		t.Errorf("/metrics has %d spex_ families, want at least 20", n)
	}
	if !strings.Contains(page, "\nspex_job_seconds_bucket") {
		t.Error("/metrics has no spex_job_seconds histogram buckets")
	}
	for _, name := range []string{"spex_campaign_outcomes_replayed_total", "spex_http_etag_304_total", "spex_store_saves_total"} {
		if after[name] < 1 {
			t.Errorf("/metrics: %s = %v, want at least 1", name, after[name])
		}
	}

	terminate(t, d)
	if _, err := os.Stat(campaignstore.LockPath(state)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the drained daemon left its state lock (stat: %v)", err)
	}
	if idx, _ := filepath.Glob(filepath.Join(state, "*.campaign.idx")); len(idx) != 0 {
		t.Errorf("the daemon's jobs wrote index files %v; indexes live only in memory", idx)
	}
	spexevalMatches(t, table, "-state", state, "-table", "5")
	spexevalMatches(t, table, "-index", "-state", state, "-table", "5")
}

// TestDaemonSchedulesJobs runs spexd's scheduler as its own process.
// Two jobs over disjoint systems are both reserved before either is
// released, and a CLI writer is refused while they run. A staged job
// that needs one of them evaluates ldapd before proxyd finishes
// injecting, since stages are events on one pool, not barriers. The
// lock-wait histogram observes the jobs, a tenant namespace runs an
// all-systems job, and SIGTERM releases every lock. spexeval then
// renders the tenant's table 5, from snapshots and from the index, as
// the daemon served it.
func TestDaemonSchedulesJobs(t *testing.T) {
	root := filepath.Join(t.TempDir(), "state")
	d := startDaemon(t, root)

	events, stop := subscribe(t, d.base+"/v1/events")
	// The sim delay holds both campaigns open while they overlap. They
	// leave proxyd and ldapd to the staged job below, which must run
	// their misconfigurations, not replay them.
	ja := submit(t, d.base+"/v1/jobs", `{"systems": ["httpd"], "workers": 1, "sim_delay": "20ms"}`)
	jb := submit(t, d.base+"/v1/jobs", `{"systems": ["ftpd"], "workers": 1, "sim_delay": "20ms"}`)
	reserved := map[string]bool{}
	for len(reserved) < 2 {
		var e dash.Event
		select {
		case ev, open := <-events:
			if !open {
				t.Fatalf("the event stream ended before both jobs were reserved:\n%s", d.log())
			}
			e = ev
		case <-time.After(time.Minute):
			t.Fatalf("the disjoint jobs were not both reserved within a minute (reserved: %v)", reserved)
		}
		if e.Kind != dash.KindSched || e.Sched == nil || (e.Job != ja && e.Job != jb) {
			continue
		}
		switch e.Sched.Op {
		case "reserve":
			reserved[e.Job] = true
		case "release":
			t.Fatalf("job %s was released before both disjoint jobs were reserved (reserved: %v)", e.Job, reserved)
		}
	}
	stop()

	// Cross-process exclusion rests on the namespace lock alone: a CLI
	// writer on the daemon's state directory is refused, naming the
	// holder.
	var stderr bytes.Buffer
	inj := exec.Command(filepath.Join(binDir, "spexinj"), "-system", "ldapd", "-state", root)
	inj.Stderr = &stderr
	if err := inj.Run(); err == nil {
		t.Error("spexinj wrote under a running daemon")
	} else if !strings.Contains(stderr.String(), "locked by pid") {
		t.Errorf("spexinj under a running daemon: %v, stderr lacks \"locked by pid\":\n%s", err, stderr.String())
	}
	finish(t, d.base+"/v1/jobs/"+ja)
	finish(t, d.base+"/v1/jobs/"+jb)

	// One worker makes the stage order deterministic: ldapd's 43
	// misconfigurations interleave with proxyd's 154.
	jc := submit(t, d.base+"/v1/jobs", fmt.Sprintf(
		`{"systems": ["proxyd", "ldapd"], "workers": 1, "stages": ["infer", "inject", "eval"], "needs": [%q]}`, ja))
	ldapdEval, proxydInject := -1, -1
	for i, e := range frames(t, finish(t, d.base+"/v1/jobs/"+jc)) {
		if e.Kind != dash.KindStage || e.Stage == nil || e.Stage.State != "done" {
			continue
		}
		switch {
		case e.Stage.System == "ldapd" && e.Stage.Stage == "eval":
			ldapdEval = i
		case e.Stage.System == "proxyd" && e.Stage.Stage == "inject":
			proxydInject = i
		}
	}
	if ldapdEval < 0 || proxydInject < 0 || ldapdEval > proxydInject {
		t.Errorf("ldapd's eval done is frame %d and proxyd's inject done frame %d; want both, ldapd's first", ldapdEval, proxydInject)
	}

	if m, _ := metrics(t, d.base); m[`spex_server_lock_wait_seconds_count{namespace="default"}`] < 1 {
		t.Errorf("the lock-wait histogram observed %v jobs, want at least 1", m[`spex_server_lock_wait_seconds_count{namespace="default"}`])
	}

	tenant := d.base + "/v1/ns/tenant1"
	finish(t, tenant+"/jobs/"+submit(t, tenant+"/jobs", `{"all": true, "workers": 4}`))
	var list struct {
		Namespaces []struct {
			Name string `json:"name"`
		} `json:"namespaces"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, d.base+"/v1/ns")), &list); err != nil {
		t.Fatal(err)
	}
	listed := false
	for _, ns := range list.Namespaces {
		listed = listed || ns.Name == "tenant1"
	}
	if !listed {
		t.Errorf("/v1/ns does not list tenant1: %+v", list.Namespaces)
	}
	table := mustGet(t, tenant+"/tables/5?format=text")

	terminate(t, d)
	for _, dir := range []string{root, filepath.Join(root, "tenant1")} {
		if _, err := os.Stat(campaignstore.LockPath(dir)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("the drained daemon left %s (stat: %v)", campaignstore.LockPath(dir), err)
		}
	}
	if locks, _ := filepath.Glob(filepath.Join(root, "*.spex.lock")); len(locks) != 0 {
		t.Errorf("the drained daemon left lock files %v", locks)
	}
	// A namespaced store is a plain state directory; -index reads it as
	// a fresh process, rebuilding every index from its snapshot.
	spexevalMatches(t, table, "-state", filepath.Join(root, "tenant1"), "-table", "5")
	spexevalMatches(t, table, "-index", "-state", filepath.Join(root, "tenant1"), "-table", "5")
}

// externalHostRE matches a reference to an http:// or https:// host.
var externalHostRE = regexp.MustCompile(`https?://`)

// TestDaemonServesDashboard runs spexd's dashboard surfaces as their own
// process. The embedded UI is served from the binary, names no external
// host and revalidates by ETag. One daemon-wide event subscription,
// opened before any job, carries two namespaces' jobs to their done
// frames, with scheduler frames and each namespace's progress, while
// spexwatch renders one of them live. SIGTERM exits 0 and dumps the bus
// series, labelled per namespace.
func TestDaemonServesDashboard(t *testing.T) {
	dir := t.TempDir()
	dump := filepath.Join(dir, "metrics.txt")
	d := startDaemon(t, filepath.Join(dir, "state"), "-metrics-out", dump)

	if page := mustGet(t, d.base+"/ui/"); !strings.Contains(page, "spex dashboard") {
		t.Errorf("/ui/ does not say \"spex dashboard\":\n%s", page)
	} else if host := externalHostRE.FindString(page); host != "" {
		t.Errorf("/ui/ names an external host (%s)", host)
	}
	if host := externalHostRE.FindString(mustGet(t, d.base+"/ui/app.js")); host != "" {
		t.Errorf("/ui/app.js names an external host (%s)", host)
	}
	_, header, _ := get(t, d.base+"/ui/app.js")
	if etag := header.Get("ETag"); etag == "" {
		t.Error("/ui/app.js carries no ETag")
	} else if code, _, _ := get(t, d.base+"/ui/app.js", "If-None-Match", etag); code != http.StatusNotModified {
		t.Errorf("revalidating /ui/app.js with its ETag answered %d, want 304", code)
	}

	events, stop := subscribe(t, d.base+"/v1/events")
	ja := submit(t, d.base+"/v1/jobs", `{"systems": ["proxyd"], "workers": 2, "sim_delay": "10ms"}`)
	jb := submit(t, d.base+"/v1/ns/tenant2/jobs", `{"systems": ["ldapd"], "workers": 2, "sim_delay": "10ms"}`)
	type nsJob struct{ ns, job string }
	done := map[nsJob]bool{}
	progress := map[string]bool{}
	sched := false
	var watch *exec.Cmd
	var watched bytes.Buffer
	for !done[nsJob{"default", ja}] || !done[nsJob{"tenant2", jb}] {
		var e dash.Event
		select {
		case ev, open := <-events:
			if !open {
				t.Fatalf("the event stream ended before both jobs were done:\n%s", d.log())
			}
			e = ev
		case <-time.After(2 * time.Minute):
			t.Fatalf("the jobs were not both done within two minutes (done: %v)", done)
		}
		switch e.Kind {
		case dash.KindJob:
			if e.State == "done" {
				done[nsJob{e.Namespace, e.Job}] = true
			} else if e.State == "failed" || e.State == "cancelled" {
				t.Fatalf("job %s in %s ended %s: %s", e.Job, e.Namespace, e.State, e.Error)
			}
		case dash.KindSched:
			sched = true
		case dash.KindProgress:
			progress[e.Namespace] = true
			if watch == nil && e.Namespace == "default" && e.Job == ja {
				// The job is running: watch it to its end.
				watch = exec.Command(filepath.Join(binDir, "spexwatch"), "-addr", d.base, "-job", ja, "-once")
				watch.Stdout = &watched
				if err := watch.Start(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	stop()
	if !sched {
		t.Error("the daemon-wide stream carries no sched frames")
	}
	for _, ns := range []string{"default", "tenant2"} {
		if !progress[ns] {
			t.Errorf("the daemon-wide stream carries no progress frames from %s", ns)
		}
	}
	if watch == nil {
		t.Fatal("the default job streamed no progress frame to watch it from")
	}
	if err := watch.Wait(); err != nil {
		t.Errorf("spexwatch -once on a done job: %v", err)
	}
	if !regexp.MustCompile(`spexwatch: [1-9][0-9]*/[0-9]+`).Match(watched.Bytes()) {
		t.Errorf("spexwatch printed no nonzero progress:\n%s", watched.String())
	}

	terminate(t, d)
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	if samples(string(data))[`spex_dash_events_total{namespace="tenant2"}`] < 1 {
		t.Errorf("the -metrics-out dump has no spex_dash_events_total series labelled namespace tenant2:\n%s", data)
	}
}
