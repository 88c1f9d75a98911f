package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"

	"spex/internal/campaignstore"
	"spex/internal/report"
	"spex/internal/server"
)

// expected pins the paper's output the benchmark checks every operation
// against: each system's outcome count and snapshot fingerprint after a
// full campaign, and the sha256 of each evaluation table as served in
// text form (spexeval's output: the table text plus a newline).
type expected struct {
	Systems map[string]expectedSystem `json:"systems"`
	Tables  map[string]string         `json:"tables"`
}

type expectedSystem struct {
	Outcomes    int    `json:"outcomes"`
	Fingerprint string `json:"fingerprint"`
}

func loadExpected(path string) (*expected, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(e.Systems) == 0 || len(e.Tables) != report.MaxTable {
		return nil, fmt.Errorf("%s: want every system and %d tables", path, report.MaxTable)
	}
	return &e, nil
}

// recordExpected derives the pinned output from a direct, daemon-free
// analysis: report.AnalyzeAllContext campaigns every target into a
// fresh store under dir, the fingerprints come from the saved
// snapshots, and the tables from report.RenderTableText.
func recordExpected(ctx context.Context, path, dir string) error {
	store, err := campaignstore.Open(dir)
	if err != nil {
		return err
	}
	lock, err := store.Lock()
	if err != nil {
		return err
	}
	results, err := report.AnalyzeAllContext(ctx, report.AnalyzeOptions{State: lock.Set(), Global: true})
	if uerr := lock.Unlock(); err == nil {
		err = uerr
	}
	if err != nil {
		return err
	}
	e := expected{Systems: map[string]expectedSystem{}, Tables: map[string]string{}}
	for _, r := range results {
		if r.StateErr != nil {
			return r.StateErr
		}
		snap, err := store.Load(r.Sys.Name())
		if err != nil {
			return err
		}
		fp, err := snap.Fingerprint()
		if err != nil {
			return err
		}
		e.Systems[r.Sys.Name()] = expectedSystem{Outcomes: len(r.Campaign.Outcomes), Fingerprint: fp}
	}
	for n := 1; n <= report.MaxTable; n++ {
		text, err := report.RenderTableText(n, results)
		if err != nil {
			return err
		}
		e.Tables[strconv.Itoa(n)] = digest([]byte(text + "\n"))
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkJob verifies a terminal job document: done, every pinned system
// present with its outcome count and fingerprint, and — for a job over
// an already-complete store — nothing executed.
func (e *expected) checkJob(doc server.Job, warm bool) error {
	if doc.State != server.StateDone {
		return fmt.Errorf("job %s ended %s: %s", doc.ID, doc.State, doc.Error)
	}
	if len(doc.Systems) != len(e.Systems) {
		return fmt.Errorf("job %s summarised %d systems, want %d", doc.ID, len(doc.Systems), len(e.Systems))
	}
	for _, s := range doc.Systems {
		want, ok := e.Systems[s.System]
		switch {
		case !ok:
			return fmt.Errorf("job %s: unexpected system %q", doc.ID, s.System)
		case s.Outcomes != want.Outcomes:
			return fmt.Errorf("job %s: %s has %d outcomes, want %d", doc.ID, s.System, s.Outcomes, want.Outcomes)
		case s.Fingerprint != want.Fingerprint:
			return fmt.Errorf("job %s: %s fingerprint %s, want %s", doc.ID, s.System, s.Fingerprint, want.Fingerprint)
		case warm && s.Executed != 0:
			return fmt.Errorf("job %s: %s executed %d misconfigurations on a complete store, want 0", doc.ID, s.System, s.Executed)
		}
	}
	return nil
}

// checkTable verifies a table body against its pinned digest.
func (e *expected) checkTable(n int, body []byte) error {
	if got, want := digest(body), e.Tables[strconv.Itoa(n)]; got != want {
		return fmt.Errorf("table %d digest %.12s, want %.12s", n, got, want)
	}
	return nil
}

// systemNames lists the pinned systems in name order.
func (e *expected) systemNames() []string {
	names := make([]string, 0, len(e.Systems))
	for name := range e.Systems {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
