// Package golden reads the campaign outcomes that testdata/golden pins,
// so that every execution mode's tests can check their stores against
// them. internal/report's TestGoldenOutput writes and checks the file.
package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Store is one system's line of stores.txt: the outcome count and the
// fingerprint (campaignstore.Snapshot.Fingerprint) of the snapshot its
// campaign saves.
type Store struct {
	Outcomes    int
	Fingerprint string
}

// Stores reads dir's stores.txt, keyed by system: the lines of the
// named systems, or every line if none is named.
func Stores(dir string, systems ...string) (map[string]Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, "stores.txt"))
	if err != nil {
		return nil, err
	}
	out := map[string]Store{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var sys string
		var s Store
		if _, err := fmt.Sscan(line, &sys, &s.Outcomes, &s.Fingerprint); err != nil {
			return nil, fmt.Errorf("golden: stores.txt line %q: %w", line, err)
		}
		if len(systems) == 0 || slices.Contains(systems, sys) {
			out[sys] = s
		}
	}
	return out, nil
}
