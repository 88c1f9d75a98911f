// Per-system pipeline tests: CampaignAll over all seven targets against
// a store, with replays resolved at prepare and never sent through the
// engine. They live in the external test package so the mixed run can
// render the paper's tables through report, which imports shard.
package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/inject"
	"spex/internal/obs"
	"spex/internal/report"
	"spex/internal/shard"
	"spex/internal/spex"
	"spex/internal/targets"
)

// allWorkloads infers the seven targets and builds their workloads, in
// targets.All order — what every driver feeds CampaignAll.
func allWorkloads(t *testing.T) []shard.Workload {
	t.Helper()
	systems := targets.All()
	rs, err := spex.InferAll(context.Background(), systems, 2)
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := shard.BuildWorkloads(systems, rs, shard.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// lockedStore opens dir and holds its writer lock for the test.
func lockedStore(t *testing.T, dir string) (*campaignstore.Store, *campaignstore.LockSet) {
	t.Helper()
	store, err := campaignstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lk, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := lk.Unlock(); err != nil {
			t.Error(err)
		}
	})
	return store, lk.Set()
}

// campaign runs ws against the store and fails the test on any error,
// cancellation included.
func campaign(t *testing.T, locks *campaignstore.LockSet, ws []shard.Workload, workers int) []shard.SystemRun {
	t.Helper()
	runs, err := shard.CampaignAll(context.Background(), locks, ws, shard.Options{Workers: workers, Inject: inject.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		if run.Err != nil || !run.Status.Saved {
			t.Fatalf("%s: not saved: %v", run.Sys.Name(), run.Err)
		}
	}
	return runs
}

// counter sums every series of a counter family in the process-global
// registry (0 if it has none yet).
func counter(t *testing.T, name string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var fams []struct {
		Name   string `json:"name"`
		Series []struct {
			Value float64 `json:"value"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &fams); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, f := range fams {
		if f.Name == name {
			for _, s := range f.Series {
				sum += uint64(s.Value)
			}
		}
	}
	return sum
}

// TestReplayRunBypassesEngine: a 100%-replay campaign resolves every
// outcome at prepare — the engine runs no task and no target boots.
func TestReplayRunBypassesEngine(t *testing.T) {
	ws := allWorkloads(t)
	_, locks := lockedStore(t, t.TempDir())
	campaign(t, locks, ws, 2)

	const tasks, boots = "spex_engine_tasks_total", "spex_sim_boots_total"
	before := map[string]uint64{tasks: counter(t, tasks), boots: counter(t, boots)}
	runs := campaign(t, locks, ws, 2)
	for name, n := range before {
		if d := counter(t, name) - n; d != 0 {
			t.Errorf("%s moved by %d during a 100%% replay, want 0", name, d)
		}
	}
	for i, run := range runs {
		if rep := run.Report; rep.Replayed != len(ws[i].Ms) || rep.TotalSimCost != 0 {
			t.Errorf("%s: replayed %d of %d, fresh sim cost %d", run.Sys.Name(), rep.Replayed, len(ws[i].Ms), rep.TotalSimCost)
		}
	}
}

// TestWarmReplayMatchesCanonicalEncodings: a rerun of the workloads
// that wrote the store matches every snapshot header and record against
// the workloads' canonical encodings, for all seven targets, so none is
// decoded in full; each prepare still counts as one snapshot load. The
// canonical decode takes a workload's own set and misconfigurations, so
// it also checks that their JSON decodes back to itself.
func TestWarmReplayMatchesCanonicalEncodings(t *testing.T) {
	ws := allWorkloads(t)
	for _, w := range ws {
		roundTrips(t, w.Set, new(constraint.Set))
		for _, m := range w.Ms {
			roundTrips(t, m, new(confgen.Misconf))
		}
	}
	_, locks := lockedStore(t, t.TempDir())
	campaign(t, locks, ws, 2)
	const loads = "spex_store_loads_total"
	before := counter(t, loads)
	for i, run := range campaign(t, locks, ws, 2) {
		if st := run.Status; !st.Replayed || st.FullHeader || st.FullDecodes != 0 {
			t.Errorf("%s: replayed %v, header decoded in full %v, %d of %d records decoded in full",
				run.Sys.Name(), st.Replayed, st.FullHeader, st.FullDecodes, len(ws[i].Ms))
		}
	}
	if d := counter(t, loads) - before; d != uint64(len(ws)) {
		t.Errorf("%s moved by %d over %d prepares", loads, d, len(ws))
	}
}

// roundTrips fails unless v's JSON decodes into back and encodes again
// to the same bytes.
func roundTrips(t *testing.T, v, back any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err == nil {
		err = json.Unmarshal(b, back)
	}
	again, merr := json.Marshal(back)
	if err != nil || merr != nil || !bytes.Equal(again, b) {
		t.Fatalf("%T does not round-trip through JSON (%v, %v):\n%s\n%s", v, err, merr, b, again)
	}
}

// TestMixedRunReplaysStoredSystems: one campaign over all seven targets
// against a store holding three of them executes nothing for those
// three, runs the other four in full, saves all seven, and the index
// replay of the result renders the paper's output byte for byte.
func TestMixedRunReplaysStoredSystems(t *testing.T) {
	ws := allWorkloads(t)
	store, locks := lockedStore(t, t.TempDir())
	stored := map[string]bool{"ldapd": true, "proxyd": true, "httpd": true}
	var subset []shard.Workload
	for _, w := range ws {
		if stored[w.Sys.Name()] {
			subset = append(subset, w)
		}
	}
	campaign(t, locks, subset, 4)

	for i, run := range campaign(t, locks, ws, 4) {
		rep, n := run.Report, len(ws[i].Ms)
		if stored[run.Sys.Name()] {
			if rep.Replayed != n || rep.TotalSimCost != 0 {
				t.Errorf("%s is stored but replayed %d of %d at fresh sim cost %d", run.Sys.Name(), rep.Replayed, n, rep.TotalSimCost)
			}
		} else if rep.Replayed != 0 || rep.Finished() != n {
			t.Errorf("%s is new but replayed %d and finished %d of %d", run.Sys.Name(), rep.Replayed, rep.Finished(), n)
		}
	}
	if names, err := store.List(); err != nil || len(names) != len(ws) {
		t.Fatalf("store lists %v (%v), want all %d systems", names, err, len(ws))
	}

	results, err := report.ReplayFromIndex(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= report.MaxTable; n++ {
		text, err := report.RenderTableText(n, results)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("table%02d.txt", n), text)
	}
	for n := 1; n <= report.MaxFigure; n++ {
		text, err := report.RenderFigureText(context.Background(), n, results)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("figure%02d.txt", n), text)
	}
}

// checkGolden compares rendered text with its golden file, which holds
// it as spexeval prints it (with a trailing newline).
func checkGolden(t *testing.T, name, text string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("../../testdata/golden", name))
	if err != nil {
		t.Fatal(err)
	}
	if text+"\n" != string(want) {
		t.Errorf("%s differs from testdata/golden", name)
	}
}

// TestCancelledReplayStillSaves: an already-cancelled context on a
// complete store returns the context error, yet every prepare runs, so
// each system is re-saved with all of its outcomes — never from an
// empty cache.
func TestCancelledReplayStillSaves(t *testing.T) {
	ws := allWorkloads(t)
	store, locks := lockedStore(t, t.TempDir())
	campaign(t, locks, ws, 2)

	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs, err := shard.CampaignAll(ctx, locks, ws, shard.Options{Workers: 2, Inject: inject.DefaultOptions()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CampaignAll on a cancelled context = %v, want context.Canceled", err)
	}
	for i, run := range runs {
		name := run.Sys.Name()
		if run.Err != nil || !run.Status.Saved {
			t.Errorf("%s: not re-saved: %v", name, run.Err)
			continue
		}
		snap, err := store.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Outcomes) != len(ws[i].Ms) || !snap.SavedAt.After(start) {
			t.Errorf("%s: snapshot holds %d of %d outcomes, saved at %v (run started %v)",
				name, len(snap.Outcomes), len(ws[i].Ms), snap.SavedAt, start)
		}
	}
}

// TestConcurrentCampaignsShareWorkloads: CampaignAll never writes its
// workloads, so two campaigns over one shared slice, into two stores,
// run at once without a data race (-race) and save snapshots with
// identical fingerprints — cold, and again warm, decoding against the
// shared canonical encodings.
func TestConcurrentCampaignsShareWorkloads(t *testing.T) {
	ws := allWorkloads(t)
	var stores [2]*campaignstore.Store
	var locks [2]*campaignstore.LockSet
	for k := range stores {
		stores[k], locks[k] = lockedStore(t, t.TempDir())
	}
	for round := 0; round < 2; round++ {
		var errs [2]error
		var wg sync.WaitGroup
		for k := range stores {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs, err := shard.CampaignAll(context.Background(), locks[k], ws, shard.Options{Workers: 2, Inject: inject.DefaultOptions()})
				for _, run := range runs {
					if err == nil && (run.Err != nil || !run.Status.Saved || run.Status.Replayed != (round == 1)) {
						err = fmt.Errorf("%s: saved %v (%v), replayed %v", run.Sys.Name(), run.Status.Saved, run.Err, run.Status.Replayed)
					}
				}
				errs[k] = err
			}()
		}
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				t.Fatalf("round %d, campaign %d: %v", round, k, err)
			}
		}
	}
	for _, w := range ws {
		var fps [2]string
		for k, store := range stores {
			snap, err := store.Load(w.Sys.Name())
			if err != nil {
				t.Fatal(err)
			}
			if fps[k], err = snap.Fingerprint(); err != nil {
				t.Fatal(err)
			}
		}
		if fps[0] != fps[1] {
			t.Errorf("%s: fingerprints differ between the two campaigns: %s vs %s", w.Sys.Name(), fps[0], fps[1])
		}
	}
}

// TestCampaignSpansRecordWhatRan: under a traced ctx, a cold campaign
// opens one misconf span per executed misconfiguration, named by its
// replay key and lying under and inside its system span, and a warm
// rerun on the same store counts its replays on each system span and
// opens no misconf span. A system span covers the making of its
// snapshot. Four workers run the prepares and the tasks concurrently
// while they open spans.
func TestCampaignSpansRecordWhatRan(t *testing.T) {
	ws := allWorkloads(t)
	store, locks := lockedStore(t, t.TempDir())
	for _, warm := range []bool{false, true} {
		tr := obs.NewTrace("job")
		ctx, job := tr.Start(context.Background(), obs.SpanJob, "job")
		runs, err := shard.CampaignAll(ctx, locks, ws, shard.Options{Workers: 4, Inject: inject.DefaultOptions()})
		if err != nil {
			t.Fatal(err)
		}
		job.End("done")
		doc := tr.Doc()

		systems := map[string]obs.SpanDoc{} // by span ID
		misconfs := map[string][]string{}   // system name → misconf span names
		for _, sp := range doc.Spans[1:] {
			switch sp.Kind {
			case obs.SpanSystem:
				if sp.Parent != doc.Spans[0].ID {
					t.Fatalf("warm=%v: system span %s is under %q, not the job span", warm, sp.Name, sp.Parent)
				}
				systems[sp.ID] = sp
			case obs.SpanMisconf:
				sys, ok := systems[sp.Parent]
				if !ok {
					t.Fatalf("warm=%v: misconf span %s is not under a system span", warm, sp.Name)
				}
				if sp.Start.Before(sys.Start) || sp.End.After(sys.End) || sp.Status != "ok" {
					t.Fatalf("warm=%v: misconf span %s [%v, %v] %s outside %s [%v, %v]",
						warm, sp.Name, sp.Start, sp.End, sp.Status, sys.Name, sys.Start, sys.End)
				}
				misconfs[sys.Name] = append(misconfs[sys.Name], sp.Name)
			default:
				t.Fatalf("warm=%v: unexpected %s span %s", warm, sp.Kind, sp.Name)
			}
		}
		if len(systems) != len(ws) {
			t.Fatalf("warm=%v: %d system spans for %d workloads", warm, len(systems), len(ws))
		}
		replayed := map[string]string{}
		for _, sp := range systems {
			snap, err := store.Load(sp.Name)
			if err != nil {
				t.Fatal(err)
			}
			if sp.Status != "ok" || snap.SavedAt.Before(sp.Start) || snap.SavedAt.After(sp.End) {
				t.Errorf("warm=%v: system span %s [%v, %v] ended %q, its snapshot saved at %v",
					warm, sp.Name, sp.Start, sp.End, sp.Status, snap.SavedAt)
			}
			replayed[sp.Name] = sp.Attrs["replayed"]
		}
		for i, run := range runs {
			name := run.Sys.Name()
			if got, want := replayed[name], strconv.Itoa(run.Report.Replayed); got != want {
				t.Errorf("warm=%v: %s system span replayed = %q, want %s", warm, name, got, want)
			}
			var executed []string
			if !warm {
				executed = slices.Clone(ws[i].Keys)
			}
			got := misconfs[name]
			slices.Sort(executed)
			slices.Sort(got)
			if !slices.Equal(got, executed) {
				t.Errorf("warm=%v: %s has %d misconf spans for %d executed misconfigurations (replayed %d)",
					warm, name, len(got), len(executed), run.Report.Replayed)
			}
		}
	}
}
