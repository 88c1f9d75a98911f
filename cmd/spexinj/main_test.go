package main

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"spex/internal/campaignstore"
)

// binDir holds the spexinj and spexmerge binaries TestMain builds once.
var binDir string

func TestMain(m *testing.M) { os.Exit(buildAndRun(m)) }

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "spexinj-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "spex/cmd/spexinj", "spex/cmd/spexmerge")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building spexinj and spexmerge: %v\n%s", err, out)
		return 1
	}
	binDir = dir
	return m.Run()
}

// execBin executes one of the built binaries in its own process.
func execBin(name string, args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	err = cmd.Run()
	return o.String(), e.String(), err
}

// mustRun is execBin for a command that must succeed; it returns
// stdout.
func mustRun(t *testing.T, name string, args ...string) string {
	t.Helper()
	stdout, stderr, err := execBin(name, args...)
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr)
	}
	return stdout
}

var (
	fingerprintRE = regexp.MustCompile(`store fingerprint [0-9a-f]+`)
	fullReplayRE  = regexp.MustCompile(`state: replayed (\d+)/(\d+), executed 0, fresh sim cost 0`)
)

// replaysInFull reports whether a -state run's report says it replayed
// every outcome at zero fresh cost.
func replaysInFull(report string) bool {
	m := fullReplayRE.FindStringSubmatch(report)
	return m != nil && m[1] == m[2]
}

// withoutLines drops the report lines containing any of the given
// substrings.
func withoutLines(report string, drop ...string) string {
	var kept []string
	for _, line := range strings.Split(report, "\n") {
		if !slices.ContainsFunc(drop, func(d string) bool { return strings.Contains(line, d) }) {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// TestStateReplaysAcrossProcesses: a second spexinj -all -state process
// over the first one's store replays every outcome of the seven systems
// at zero fresh cost, says that each snapshot was left as it was and
// leaves every file in the store with its bytes and mtime, prints the
// same report apart from its state and cost lines, and its -metrics-out
// dump records replayed outcomes and no fresh ones.
func TestStateReplaysAcrossProcesses(t *testing.T) {
	tmp := t.TempDir()
	state, metrics := filepath.Join(tmp, "state"), filepath.Join(tmp, "metrics.txt")
	first := mustRun(t, "spexinj", "-all", "-state", state)
	if n := strings.Count(first, "state: full campaign — no snapshot (first run)"); n != 7 {
		t.Errorf("the first run is a full first-run campaign for %d systems, want 7:\n%s", n, first)
	}
	files := readFiles(t, state)
	second := mustRun(t, "spexinj", "-all", "-state", state, "-metrics-out", metrics)
	replays := fullReplayRE.FindAllStringSubmatch(second, -1)
	for _, m := range replays {
		if m[1] != m[2] {
			t.Errorf("the second run replayed %s of %s outcomes", m[1], m[2])
		}
	}
	if n := strings.Count(second, "state: snapshot unchanged, left as it was at "); len(replays) != 7 || n != 7 {
		t.Errorf("the second run replays %d systems at zero fresh cost and leaves %d unchanged, want 7 and 7:\n%s", len(replays), n, second)
	}
	if after := readFiles(t, state); !maps.EqualFunc(after, files, fileState.equal) {
		t.Errorf("the second run changed the store's files")
	}
	if a, b := withoutLines(first, "state:", "simulated cost"), withoutLines(second, "state:", "simulated cost"); a != b {
		t.Errorf("the replayed report differs from the first run's:\n%s\n---\n%s", a, b)
	}

	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	value := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		name, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			value[name] = f
		}
	}
	for _, name := range []string{"spex_store_loads_total", "spex_campaign_outcomes_replayed_total", "spex_campaign_outcomes_fresh_total"} {
		if _, ok := value[name]; !ok {
			t.Errorf("-metrics-out has no %s series", name)
		}
	}
	if r, f := value["spex_campaign_outcomes_replayed_total"], value["spex_campaign_outcomes_fresh_total"]; r <= 0 || f != 0 {
		t.Errorf("replay run recorded %v replayed and %v fresh outcomes, want > 0 and 0", r, f)
	}
}

// fileState is a file's bytes and modification time.
type fileState struct {
	data []byte
	mod  time.Time
}

func (a fileState) equal(b fileState) bool { return bytes.Equal(a.data, b.data) && a.mod.Equal(b.mod) }

// readFiles reads every file in dir by name.
func readFiles(t *testing.T, dir string) map[string]fileState {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]fileState, len(entries))
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = fileState{data: data, mod: fi.ModTime()}
	}
	return files
}

// TestShardMergeMatchesUnshardedRun: two -shard processes merged by
// spexmerge give a store that replays in full and reports exactly what
// an unsharded store's replay reports.
func TestShardMergeMatchesUnshardedRun(t *testing.T) {
	tmp := t.TempDir()
	dir := func(name string) string { return filepath.Join(tmp, name) }
	mustRun(t, "spexinj", "-system", "proxyd", "-state", dir("unsharded"))
	unsharded := mustRun(t, "spexinj", "-system", "proxyd", "-state", dir("unsharded"))
	mustRun(t, "spexinj", "-system", "proxyd", "-shard", "1/2", "-state", dir("shard1"))
	mustRun(t, "spexinj", "-system", "proxyd", "-shard", "2/2", "-state", dir("shard2"))
	mustRun(t, "spexmerge", "-out", dir("merged"), dir("shard1"), dir("shard2"))
	merged := mustRun(t, "spexinj", "-system", "proxyd", "-state", dir("merged"))
	if !replaysInFull(merged) {
		t.Errorf("the merged store does not replay in full:\n%s", merged)
	}
	if a, b := withoutLines(unsharded, "state:"), withoutLines(merged, "state:"); a != b {
		t.Errorf("the merged store's report differs from the unsharded one's:\n%s\n---\n%s", a, b)
	}
}

// TestCoordinatorMatchesUnshardedRun runs a coordinated campaign as
// separate processes — spexinj -coordinate launching spexinj -lease
// workers — with worker 1 ten times slower per simulated cost unit. The
// fast worker must steal from it, the merged store's fingerprint must
// equal an unsharded run's, and the coordinated root must replay in
// full at zero fresh cost.
func TestCoordinatorMatchesUnshardedRun(t *testing.T) {
	tmp := t.TempDir()
	unsharded, canon, coordinated := filepath.Join(tmp, "us"), filepath.Join(tmp, "us-canon"), filepath.Join(tmp, "coordst")

	// Merging a single store canonicalizes it; the fingerprint excludes
	// save times.
	mustRun(t, "spexinj", "-system", "proxyd", "-state", unsharded)
	want := fingerprintRE.FindAllString(mustRun(t, "spexmerge", "-out", canon, unsharded), -1)

	stdout, stderr, err := execBin("spexinj", "-system", "proxyd", "-coordinate", "2", "-steal-min", "2",
		"-sim-delay", "200us", "-skew", "10", "-state", coordinated)
	if err != nil {
		t.Fatalf("coordinator: %v\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "stole") {
		t.Errorf("the fast worker never stole from the slow one; coordinator events:\n%s", stderr)
	}
	got := fingerprintRE.FindAllString(stdout, -1)
	if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("coordinated %q, unsharded %q", got, want)
	}

	replay := mustRun(t, "spexinj", "-system", "proxyd", "-state", coordinated)
	if !replaysInFull(replay) {
		t.Errorf("the coordinated root does not replay in full:\n%s", replay)
	}
}

// TestCoordinatorRefusesLockedRoot: the coordinator takes the state
// root's writer lock itself, so while another process holds it,
// spexinj -coordinate exits non-zero and names the holder.
func TestCoordinatorRefusesLockedRoot(t *testing.T) {
	dir := t.TempDir()
	store, err := campaignstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lk, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := lk.Unlock(); err != nil {
			t.Error(err)
		}
	}()
	_, stderr, err := execBin("spexinj", "-system", "proxyd", "-coordinate", "2", "-state", dir)
	if err == nil {
		t.Fatal("spexinj -coordinate ran on a state root another process holds")
	}
	if !strings.Contains(stderr, "locked by pid") {
		t.Errorf("stderr does not name the lock holder:\n%s", stderr)
	}
}

var (
	errorReportRE = regexp.MustCompile(`(?s)=== SPEX-INJ error report: .*?\n\n`)
	moreVulnsRE   = regexp.MustCompile(`^  \.\.\. \(\d+ more vulnerabilities in (\S+); raise -max\)$`)
)

// TestCoordinatedReportsMatchUnshardedRun: -coordinate -reports renders
// error reports from the merged store, at most -max per system, and
// each is a report the unsharded run prints too.
func TestCoordinatedReportsMatchUnshardedRun(t *testing.T) {
	all := mustRun(t, "spexinj", "-all", "-reports", "-max", "100000")
	coordinated := mustRun(t, "spexinj", "-all", "-coordinate", "2", "-reports", "-max", "2",
		"-state", filepath.Join(t.TempDir(), "coordst"))

	reports, systems := 0, map[string]bool{}
	for _, line := range strings.Split(coordinated, "\n") {
		if strings.HasPrefix(line, "=== SPEX-INJ error report: ") {
			reports++
		}
		if m := moreVulnsRE.FindStringSubmatch(line); m != nil {
			if reports > 2 {
				t.Errorf("%d error reports for %s, want at most 2", reports, m[1])
			}
			systems[m[1]] = true
			reports = 0
		}
	}
	if len(systems) != 7 || reports != 0 {
		t.Errorf("capped reports for %d systems, with %d reports after the last cap, want all 7 capped:\n%s",
			len(systems), reports, coordinated)
	}
	blocks := errorReportRE.FindAllString(coordinated, -1)
	if len(blocks) == 0 {
		t.Fatalf("the coordinated run printed no error reports:\n%s", coordinated)
	}
	for _, b := range blocks {
		if !strings.Contains(all, b) {
			t.Errorf("the unsharded run does not report:\n%s", b)
		}
	}
}
