package main

import (
	"os"
	"path/filepath"
	"testing"

	"spex/internal/analysis"
)

// TestRepoIsClean runs the full spexlint suite over every package in
// the module, tests included, and fails on any finding. It calls the
// analysis.Check the command runs, so it sees what CI's spexlint step
// sees: the tree must hold its own invariants, with every deliberate
// waiver carried by an auditable //spexlint:ignore directive.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Check(root, suite(), "./...")
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if err != nil {
		t.Error(err)
	}
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
