package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// binDir holds the spexinj, spexmerge and spexeval binaries TestMain
// builds once.
var binDir string

func TestMain(m *testing.M) { os.Exit(buildAndRun(m)) }

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "spexeval-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"spex/cmd/spexinj", "spex/cmd/spexmerge", "spex/cmd/spexeval")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building spexinj, spexmerge and spexeval: %v\n%s", err, out)
		return 1
	}
	binDir = dir
	return m.Run()
}

// mustRun runs one of the built binaries in its own process and returns
// its stdout; the command must succeed.
func mustRun(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// goldenDir holds every table and figure as spexeval prints it.
const goldenDir = "../../testdata/golden"

// golden returns the golden file's contents.
func golden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestShardedStoreRendersGolden runs the distributed table pipeline as
// separate processes: two `spexinj -all -shard i/2` stores folded by
// spexmerge. Rendered from the merged store, by a -state replay and by
// an -index read (which builds every index from its snapshot, as any
// fresh process does), each table and figure is byte-identical to its
// golden file, and a run without -table or -figure prints all of them
// in order, table 10 left out (table 9 renders it).
func TestShardedStoreRendersGolden(t *testing.T) {
	tmp := t.TempDir()
	s1, s2, merged := filepath.Join(tmp, "s1"), filepath.Join(tmp, "s2"), filepath.Join(tmp, "merged")
	mustRun(t, "spexinj", "-all", "-shard", "1/2", "-state", s1)
	mustRun(t, "spexinj", "-all", "-shard", "2/2", "-state", s2)
	mustRun(t, "spexmerge", "-out", merged, s1, s2)

	for _, mode := range [][]string{{"-state", merged}, {"-index", "-state", merged}} {
		var all strings.Builder
		for _, kind := range []struct {
			name string
			n    int
		}{{"table", 12}, {"figure", 7}} {
			for n := 1; n <= kind.n; n++ {
				file := fmt.Sprintf("%s%02d.txt", kind.name, n)
				want := golden(t, file)
				args := slices.Concat(mode, []string{"-" + kind.name, strconv.Itoa(n)})
				if got := mustRun(t, "spexeval", args...); got != want {
					t.Errorf("spexeval %s differs from %s:\n--- golden ---\n%s\n--- got ---\n%s",
						strings.Join(args, " "), file, want, got)
				}
				if file != "table10.txt" {
					all.WriteString(want)
				}
			}
		}
		if got := mustRun(t, "spexeval", mode...); got != all.String() {
			t.Errorf("spexeval %s does not print every golden file but table10.txt, in order:\n%s",
				strings.Join(mode, " "), got)
		}
	}
}

// TestIndexOfMissingStateWritesNothing: -index reads a store without
// writing to it, so over a state directory that does not exist it exits
// 1 with the incomplete-state error and leaves no directory behind.
func TestIndexOfMissingStateWritesNothing(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	cmd := exec.Command(filepath.Join(binDir, "spexeval"), "-index", "-state", missing, "-table", "5")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 1 || !strings.Contains(stderr.String(), "campaign state incomplete") {
		t.Errorf("spexeval -index -state <missing> exited %d (%v), want 1 with the incomplete-state error:\n%s", code, err, stderr.String())
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("spexeval -index -state <missing> left %s behind: %v", missing, err)
	}
}
