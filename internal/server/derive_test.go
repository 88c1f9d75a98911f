package server_test

import (
	"fmt"
	"io"
	"net/http"
	"os"
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
