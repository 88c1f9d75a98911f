package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

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
	if m := fullReplayRE.FindStringSubmatch(replay); m == nil || m[1] != m[2] {
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
