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
	"strings"
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
func allWorkloads(t testing.TB) []shard.Workload {
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
func lockedStore(t testing.TB, dir string) (*campaignstore.Store, *campaignstore.LockSet) {
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
// cancellation included, and unless every system was saved or found
// unchanged.
func campaign(t testing.TB, locks *campaignstore.LockSet, ws []shard.Workload, workers int) []shard.SystemRun {
	t.Helper()
	runs, err := shard.CampaignAll(context.Background(), locks, ws, shard.Options{Workers: workers, Inject: inject.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		if st := run.Status; run.Err != nil || st.Saved == st.Unchanged {
			t.Fatalf("%s: saved %v, unchanged %v: %v", run.Sys.Name(), st.Saved, st.Unchanged, run.Err)
		}
	}
	return runs
}

// snapshotFile is a snapshot file's bytes and modification time.
type snapshotFile struct {
	data []byte
	mod  time.Time
}

// readSnapshotFile reads the system's snapshot file in the store.
func readSnapshotFile(t testing.TB, store *campaignstore.Store, system string) snapshotFile {
	t.Helper()
	fi, err := os.Stat(store.Path(system))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path(system))
	if err != nil {
		t.Fatal(err)
	}
	return snapshotFile{data: data, mod: fi.ModTime()}
}

// snapshotFiles reads each workload's snapshot file in the store.
func snapshotFiles(t testing.TB, store *campaignstore.Store, ws []shard.Workload) map[string]snapshotFile {
	t.Helper()
	files := make(map[string]snapshotFile, len(ws))
	for _, w := range ws {
		files[w.Sys.Name()] = readSnapshotFile(t, store, w.Sys.Name())
	}
	return files
}

// checkUnchanged fails unless each of runs reports its snapshot
// unchanged and unsaved, and its file kept the bytes and mtime it had
// in before.
func checkUnchanged(t testing.TB, store *campaignstore.Store, runs []shard.SystemRun, before map[string]snapshotFile) {
	t.Helper()
	for _, run := range runs {
		name := run.Sys.Name()
		if st := run.Status; !st.Unchanged || st.Saved || run.Err != nil {
			t.Errorf("%s: unchanged %v, saved %v: %v", name, st.Unchanged, st.Saved, run.Err)
		}
		if now, was := readSnapshotFile(t, store, name), before[name]; !bytes.Equal(now.data, was.data) || !now.mod.Equal(was.mod) {
			t.Errorf("%s: the snapshot file was rewritten (mtime %v, was %v)", name, now.mod, was.mod)
		}
	}
}

// counter sums every series of a counter family in the process-global
// registry (0 if it has none yet), read from the text GET /metrics
// serves.
func counter(t *testing.T, name string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, line := range strings.Split(buf.String(), "\n") {
		series, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || (series != name && !strings.HasPrefix(series, name+"{")) {
			continue
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		sum += n
	}
	return sum
}

// TestReplayRunBypassesEngine: a 100%-replay campaign resolves every
// outcome at prepare — the engine runs no task and no target boots —
// and leaves every snapshot as it was.
func TestReplayRunBypassesEngine(t *testing.T) {
	ws := allWorkloads(t)
	store, locks := lockedStore(t, t.TempDir())
	campaign(t, locks, ws, 2)
	files := snapshotFiles(t, store, ws)

	const tasks, boots = "spex_engine_tasks_total", "spex_sim_boots_total"
	before := map[string]uint64{tasks: counter(t, tasks), boots: counter(t, boots)}
	runs := campaign(t, locks, ws, 2)
	checkUnchanged(t, store, runs, files)
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
// it also checks that their JSON decodes back to itself. Having matched
// everything and changed nothing, the rerun saves nothing.
func TestWarmReplayMatchesCanonicalEncodings(t *testing.T) {
	ws := allWorkloads(t)
	for _, w := range ws {
		roundTrips(t, w.Set, new(constraint.Set))
		for _, m := range w.Ms {
			roundTrips(t, m, new(confgen.Misconf))
		}
	}
	store, locks := lockedStore(t, t.TempDir())
	campaign(t, locks, ws, 2)
	files := snapshotFiles(t, store, ws)
	const loads, saves = "spex_store_loads_total", "spex_store_saves_total"
	before := map[string]uint64{loads: counter(t, loads), saves: counter(t, saves)}
	runs := campaign(t, locks, ws, 2)
	for i, run := range runs {
		if st := run.Status; !st.Replayed || st.FullHeader || st.FullDecodes != 0 || st.Retests != 0 || st.Pruned != 0 {
			t.Errorf("%s: replayed %v, header decoded in full %v, %d of %d records decoded in full, %d retests, %d pruned",
				run.Sys.Name(), st.Replayed, st.FullHeader, st.FullDecodes, len(ws[i].Ms), st.Retests, st.Pruned)
		}
	}
	checkUnchanged(t, store, runs, files)
	if d := counter(t, loads) - before[loads]; d != uint64(len(ws)) {
		t.Errorf("%s moved by %d over %d prepares", loads, d, len(ws))
	}
	if d := counter(t, saves) - before[saves]; d != 0 {
		t.Errorf("%s moved by %d over an unchanged rerun", saves, d)
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
// three and leaves their snapshots as they were, runs and saves the
// other four in full, and the index replay of the result renders the
// paper's output byte for byte.
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
	files := snapshotFiles(t, store, subset)

	var unchanged []shard.SystemRun
	for i, run := range campaign(t, locks, ws, 4) {
		rep, n := run.Report, len(ws[i].Ms)
		if stored[run.Sys.Name()] {
			if rep.Replayed != n || rep.TotalSimCost != 0 {
				t.Errorf("%s is stored but replayed %d of %d at fresh sim cost %d", run.Sys.Name(), rep.Replayed, n, rep.TotalSimCost)
			}
			unchanged = append(unchanged, run)
		} else if rep.Replayed != 0 || rep.Finished() != n || !run.Status.Saved {
			t.Errorf("%s is new but replayed %d and finished %d of %d, saved %v", run.Sys.Name(), rep.Replayed, rep.Finished(), n, run.Status.Saved)
		}
	}
	checkUnchanged(t, store, unchanged, files)
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
// each system replays all of its outcomes and is found unchanged: its
// snapshot keeps every outcome and is never rewritten from an empty
// cache.
func TestCancelledReplayStillSaves(t *testing.T) {
	ws := allWorkloads(t)
	store, locks := lockedStore(t, t.TempDir())
	campaign(t, locks, ws, 2)
	files := snapshotFiles(t, store, ws)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs, err := shard.CampaignAll(ctx, locks, ws, shard.Options{Workers: 2, Inject: inject.DefaultOptions()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CampaignAll on a cancelled context = %v, want context.Canceled", err)
	}
	checkUnchanged(t, store, runs, files)
	for i, run := range runs {
		name := run.Sys.Name()
		snap, err := store.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Outcomes) != len(ws[i].Ms) || run.Report.Replayed != len(ws[i].Ms) {
			t.Errorf("%s: snapshot holds %d of %d outcomes, %d replayed", name, len(snap.Outcomes), len(ws[i].Ms), run.Report.Replayed)
		}
	}
}

// TestConcurrentCampaignsShareWorkloads: CampaignAll never writes its
// workloads, so two campaigns over one shared slice, into two stores,
// run at once without a data race (-race) and save snapshots with
// identical fingerprints — cold, and again warm, decoding against the
// shared canonical encodings and leaving every snapshot unchanged.
func TestConcurrentCampaignsShareWorkloads(t *testing.T) {
	ws := allWorkloads(t)
	var stores [2]*campaignstore.Store
	var locks [2]*campaignstore.LockSet
	var files [2]map[string]snapshotFile
	for k := range stores {
		stores[k], locks[k] = lockedStore(t, t.TempDir())
	}
	for _, warm := range []bool{false, true} {
		var runs [2][]shard.SystemRun
		var errs [2]error
		var wg sync.WaitGroup
		for k := range stores {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[k], errs[k] = shard.CampaignAll(context.Background(), locks[k], ws, shard.Options{Workers: 2, Inject: inject.DefaultOptions()})
			}()
		}
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				t.Fatalf("warm %v, campaign %d: %v", warm, k, err)
			}
			if warm {
				checkUnchanged(t, stores[k], runs[k], files[k])
				continue
			}
			for _, run := range runs[k] {
				if run.Err != nil || !run.Status.Saved || run.Status.Replayed {
					t.Fatalf("cold campaign %d: %s saved %v (%v), replayed %v", k, run.Sys.Name(), run.Status.Saved, run.Err, run.Status.Replayed)
				}
			}
			files[k] = snapshotFiles(t, stores[k], ws)
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
// opens no misconf span. A cold system span covers the making of its
// snapshot, and a warm one ends with it unchanged. Four workers run the
// prepares and the tasks concurrently while they open spans.
func TestCampaignSpansRecordWhatRan(t *testing.T) {
	ws := allWorkloads(t)
	store, locks := lockedStore(t, t.TempDir())
	var files map[string]snapshotFile
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
			// A cold system saves inside its span; a warm one keeps the
			// cold save.
			inside := !snap.SavedAt.Before(sp.Start) && !snap.SavedAt.After(sp.End)
			if sp.Status != "ok" || inside == warm {
				t.Errorf("warm=%v: system span %s [%v, %v] ended %q, its snapshot saved at %v",
					warm, sp.Name, sp.Start, sp.End, sp.Status, snap.SavedAt)
			}
			replayed[sp.Name] = sp.Attrs["replayed"]
		}
		if warm {
			checkUnchanged(t, store, runs, files)
		}
		files = snapshotFiles(t, store, ws)
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

// TestMergeIgnoresUnchangedStamps is why an unchanged snapshot may keep
// its older stamps: they can only change which copy of a key a merge
// keeps, and every copy of a key is equal. Store a is campaigned, store
// b then re-executes the same keys (newer stamps), and a warm job
// leaves a unchanged, so b's copy wins every key. A copy of a re-saved
// with every stamp set to now, as a warm job's save stamped it, wins
// every key instead. Both merges give the same outcome counts and
// fingerprints, and those are a's.
func TestMergeIgnoresUnchangedStamps(t *testing.T) {
	ws := allWorkloads(t)
	tmp := t.TempDir()
	dir := func(name string) string { return filepath.Join(tmp, name) }
	a, aLocks := lockedStore(t, dir("a"))
	b, bLocks := lockedStore(t, dir("b"))
	resaved, resavedLocks := lockedStore(t, dir("resaved"))
	campaign(t, aLocks, ws, 2)
	campaign(t, bLocks, ws, 2)
	files := snapshotFiles(t, a, ws)
	checkUnchanged(t, a, campaign(t, aLocks, ws, 2), files)
	for _, w := range ws {
		snap, err := a.Load(w.Sys.Name())
		if err != nil {
			t.Fatal(err)
		}
		snap.SavedAt, snap.Stamps = time.Now().UTC(), nil
		if err := resavedLocks.Save(snap); err != nil {
			t.Fatal(err)
		}
	}

	// merge folds the stores into a new one and checks that winner's
	// copy of every key won.
	stores := map[string]*campaignstore.Store{"b": b, "resaved": resaved}
	merge := func(name, winner string, srcs ...string) map[string]shard.MergeStat {
		t.Helper()
		dst, locks := lockedStore(t, dir(name))
		var dirs []string
		for _, src := range srcs {
			dirs = append(dirs, dir(src))
		}
		stats, err := shard.Merge(locks, dirs)
		if err != nil {
			t.Fatal(err)
		}
		bySystem := make(map[string]shard.MergeStat, len(stats))
		for _, st := range stats {
			bySystem[st.System] = st
			got, err := dst.Load(st.System)
			if err != nil {
				t.Fatal(err)
			}
			want, err := stores[winner].Load(st.System)
			if err != nil {
				t.Fatal(err)
			}
			for k, stamp := range got.Stamps {
				if !stamp.Equal(want.Stamps[k]) {
					t.Fatalf("%s: %s: %s kept the copy stamped %v, not %s's (%v)", name, st.System, k, stamp, winner, want.Stamps[k])
				}
			}
		}
		return bySystem
	}
	unchanged := merge("merged", "b", "a", "b")
	stamped := merge("merged-resaved", "resaved", "resaved", "b")
	for i, w := range ws {
		name := w.Sys.Name()
		snap, err := a.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := snap.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		u, s := unchanged[name], stamped[name]
		if u.Outcomes != len(ws[i].Ms) || u.Duplicates != u.Outcomes || u.Fingerprint != fp ||
			s.Outcomes != u.Outcomes || s.Duplicates != u.Duplicates || s.Fingerprint != u.Fingerprint {
			t.Errorf("%s: merged with the unchanged store %d outcomes (%d duplicates) %s, with the re-saved one %d (%d) %s; want %d (%d) %s",
				name, u.Outcomes, u.Duplicates, u.Fingerprint, s.Outcomes, s.Duplicates, s.Fingerprint, len(ws[i].Ms), len(ws[i].Ms), fp)
		}
	}
}
