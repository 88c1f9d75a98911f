package server_test

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spex/internal/report"
	"spex/internal/server"
)

// TestConcurrentJobsShareDerivation: every job and every table rebuild
// reads the daemon's one inference. Two all-systems jobs in two
// namespaces run at once, and both namespaces then serve the paper's
// twelve tables byte for byte. A second pair of jobs replays both
// stores while both namespaces' tables are fetched. Run it under -race:
// a job or a table rebuild that writes the shared constraint sets or
// misconfigurations shows up there.
func TestConcurrentJobsShareDerivation(t *testing.T) {
	_, ts := daemon(t, server.Config{StateDir: t.TempDir(), Workers: 2})
	namespaces := []string{"tenant-a", "tenant-b"}
	submit := func() []string {
		urls := make([]string, len(namespaces))
		for i, ns := range namespaces {
			doc := postJobAt(t, ts.URL+"/v1/ns/"+ns+"/jobs", `{"all": true, "workers": 2}`)
			urls[i] = ts.URL + "/v1/ns/" + ns + "/jobs/" + doc.ID
		}
		return urls
	}
	wait := func(urls []string) {
		for _, url := range urls {
			if final := waitTerminalAt(t, url, 2*time.Minute); final.State != server.StateDone {
				t.Fatalf("%s ended %s: %s", url, final.State, final.Error)
			}
		}
	}
	// tables fetches every namespace's twelve tables at once and diffs
	// them against testdata/golden.
	tables := func() {
		var wg sync.WaitGroup
		for _, ns := range namespaces {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 1; n <= report.MaxTable; n++ {
					if err := checkTable(ts.URL+"/v1/ns/"+ns, n); err != nil {
						t.Errorf("%s: %v", ns, err)
					}
				}
			}()
		}
		wg.Wait()
	}

	wait(submit())
	tables()
	replays := submit()
	tables()
	wait(replays)
}

// TestWarmJobKeepsTablesCache: the tables cache is keyed by the
// combined fingerprint ETag, and a warm job re-saves identical
// fingerprints, so the first table read after it is a cache hit, not a
// rebuild.
func TestWarmJobKeepsTablesCache(t *testing.T) {
	_, ts := daemon(t, server.Config{StateDir: t.TempDir(), Workers: 2})
	run := func() {
		t.Helper()
		doc := postJob(t, ts.URL, `{"all": true, "workers": 2}`)
		if final := waitTerminal(t, ts.URL, doc.ID, 2*time.Minute); final.State != server.StateDone {
			t.Fatalf("job ended %s: %s", final.State, final.Error)
		}
	}
	run()
	if err := checkTable(ts.URL+"/v1", 5); err != nil {
		t.Fatal(err)
	}
	run() // warm: every outcome replays and every system is re-saved
	hits, rebuilds := counter(t, ts.URL, "spex_server_tables_cache_hits_total"), counter(t, ts.URL, "spex_server_tables_cache_rebuilds_total")
	if err := checkTable(ts.URL+"/v1", 5); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, ts.URL, "spex_server_tables_cache_hits_total"); got != hits+1 {
		t.Errorf("tables cache hits moved %v → %v after a warm job, want one hit", hits, got)
	}
	if got := counter(t, ts.URL, "spex_server_tables_cache_rebuilds_total"); got != rebuilds {
		t.Errorf("tables cache rebuilt after a warm job (%v → %v)", rebuilds, got)
	}
}

// TestWarmJobReadsNoIndexFromDisk: a job's saves leave each system's
// outcome index in the store's memory, so neither the job's own eval
// nor the table read after it loads an index from disk.
func TestWarmJobReadsNoIndexFromDisk(t *testing.T) {
	_, ts := daemon(t, server.Config{StateDir: t.TempDir(), Workers: 2})
	run := func() {
		t.Helper()
		doc := postJob(t, ts.URL, `{"all": true, "workers": 2}`)
		if final := waitTerminal(t, ts.URL, doc.ID, 2*time.Minute); final.State != server.StateDone {
			t.Fatalf("job ended %s: %s", final.State, final.Error)
		}
	}
	run()
	rebuilds := counter(t, ts.URL, "spex_server_index_cache_rebuilds_total")
	run() // warm: every system is re-saved
	if err := checkTable(ts.URL+"/v1", 5); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, ts.URL, "spex_server_index_cache_rebuilds_total"); got != rebuilds {
		t.Errorf("a warm job and a table read loaded %v indexes from disk, want 0", got-rebuilds)
	}
}

// counter reads one unlabelled counter from the daemon's /metrics.
func counter(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

// checkTable fetches table n's text form under base (the /v1 root of a
// namespace's routes) and diffs it against its golden file.
func checkTable(base string, n int) error {
	golden, err := os.ReadFile(fmt.Sprintf("../../testdata/golden/table%02d.txt", n))
	if err != nil {
		return err
	}
	resp, err := http.Get(fmt.Sprintf("%s/tables/%d?format=text", base, n))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("table %d: %d %s", n, resp.StatusCode, body)
	}
	if string(body) != string(golden) {
		return fmt.Errorf("table %d differs from testdata/golden", n)
	}
	return nil
}
