// Store-backed campaign tests: the snapshot-replay policy (Store.Prepare)
// driven end to end through shard.CampaignAll, the one campaign path.
// They live in the external test package because shard imports
// campaignstore.
package campaignstore_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/inject"
	"spex/internal/shard"
	"spex/internal/sim"
	"spex/internal/spex"
	"spex/internal/targets"
)

// storeSystem is a minimal sim.System whose boots are counted, so tests
// can assert exactly which misconfigurations re-executed vs replayed.
type storeSystem struct {
	boots atomic.Int32
}

func (s *storeSystem) Name() string                       { return "storefake" }
func (s *storeSystem) Description() string                { return "fake target for store tests" }
func (s *storeSystem) Syntax() conffile.Syntax            { return conffile.SyntaxEquals }
func (s *storeSystem) DefaultConfig() string              { return "p = good\nq = 1\n" }
func (s *storeSystem) Sources() map[string]string         { return nil }
func (s *storeSystem) Annotations() string                { return "" }
func (s *storeSystem) Manual() map[string]sim.ManualEntry { return nil }
func (s *storeSystem) GroundTruth() *constraint.Set       { return constraint.NewSet("storefake") }
func (s *storeSystem) SetupEnv(env *sim.Env)              {}
func (s *storeSystem) Tests() []sim.FuncTest {
	return []sim.FuncTest{{
		Name: "ping", Weight: 2,
		Run: func(env *sim.Env, inst sim.Instance) error {
			if v, _ := inst.Effective("p"); v == "bad" {
				return fmt.Errorf("request failed")
			}
			return nil
		},
	}}
}

type storeInstance struct{ effective map[string]string }

func (i *storeInstance) Effective(p string) (string, bool) {
	v, ok := i.effective[p]
	return v, ok
}
func (i *storeInstance) Stop() {}

func (s *storeSystem) Start(env *sim.Env, cfg *conffile.File) (sim.Instance, error) {
	s.boots.Add(1)
	eff := map[string]string{}
	for _, p := range []string{"p", "q"} {
		if v, ok := cfg.Get(p); ok {
			eff[p] = v
		}
	}
	if eff["p"] == "crash" {
		panic("segfault")
	}
	return &storeInstance{effective: eff}, nil
}

// The constraint and misconfiguration fixtures mirror the in-package
// ones in campaignstore_test.go.

func basicC(p string) *constraint.Constraint {
	return &constraint.Constraint{Kind: constraint.KindBasicType, Param: p, Basic: constraint.BasicString}
}

func rangeC(p string, min int64) *constraint.Constraint {
	return &constraint.Constraint{Kind: constraint.KindRange, Param: p,
		Intervals: []constraint.Interval{{HasMin: true, Min: min, Valid: true}}}
}

func mkSet(cs ...*constraint.Constraint) *constraint.Set {
	s := constraint.NewSet("storefake")
	for _, c := range cs {
		s.Add(c)
	}
	return s
}

// misconfs builds n misconfigurations against c, with values cycling
// through good / bad / crash so the campaign produces a mix of
// reactions (including vulnerabilities).
func misconfs(c *constraint.Constraint, n int) []confgen.Misconf {
	values := []string{"good", "bad", "crash"}
	var ms []confgen.Misconf
	for i := 0; i < n; i++ {
		ms = append(ms, confgen.Misconf{
			ID: fmt.Sprintf("m%02d", i), Param: "p",
			Values:   map[string]string{"p": values[i%len(values)]},
			Violates: c,
		})
	}
	return ms
}

// workload is the workload shard.BuildWorkloads would build from set and
// ms: replay keys and canonical encodings included.
func workload(sys sim.System, set *constraint.Set, ms []confgen.Misconf) shard.Workload {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = inject.CacheKey(m)
	}
	return shard.Workload{Sys: sys, Set: set, Ms: ms, Keys: keys, Canon: campaignstore.NewCanonical(set, ms, keys)}
}

// campaign runs one workload through shard.CampaignAll under the
// store's writer lock and returns the system's report and store status.
func campaign(t *testing.T, ctx context.Context, store *campaignstore.Store, sys sim.System, set *constraint.Set, ms []confgen.Misconf, opts shard.Options) (*inject.Report, campaignstore.Status, error) {
	t.Helper()
	return campaignOf(t, ctx, store, workload(sys, set, ms), opts)
}

// campaignOf is campaign for a prepared workload.
func campaignOf(t *testing.T, ctx context.Context, store *campaignstore.Store, w shard.Workload, opts shard.Options) (*inject.Report, campaignstore.Status, error) {
	t.Helper()
	lk, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := lk.Unlock(); err != nil {
			t.Error(err)
		}
	}()
	runs, err := shard.CampaignAll(ctx, lk.Set(), []shard.Workload{w}, opts)
	if err == nil {
		err = runs[0].Err
	}
	return runs[0].Report, runs[0].Status, err
}

func defaults() shard.Options { return shard.Options{Inject: inject.DefaultOptions()} }

func openStore(t *testing.T) *campaignstore.Store {
	t.Helper()
	store, err := campaignstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestCampaignReplaysAcrossRuns(t *testing.T) {
	store := openStore(t)
	sys := &storeSystem{}
	c := basicC("p")
	set := mkSet(c)
	ms := misconfs(c, 9)

	// Run 1: full campaign, snapshot rebuilt from scratch.
	rep1, st1, err := campaign(t, context.Background(), store, sys, set, ms, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if st1.Replayed || st1.Fallback == "" || !st1.Saved {
		t.Fatalf("first run status = %+v, want full-campaign fallback with a saved snapshot", st1)
	}
	if rep1.Replayed != 0 || rep1.TotalSimCost == 0 {
		t.Fatalf("first run replayed=%d cost=%d, want a fully fresh campaign", rep1.Replayed, rep1.TotalSimCost)
	}
	boots1 := sys.boots.Load()
	if boots1 != 9 {
		t.Fatalf("first run booted %d times, want 9", boots1)
	}

	// Run 2: unchanged constraints — everything replays, zero fresh cost.
	rep2, st2, err := campaign(t, context.Background(), store, sys, set, ms, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Replayed || st2.Retests != 0 {
		t.Fatalf("second run status = %+v, want replay with zero retests", st2)
	}
	if rep2.Replayed != 9 || rep2.TotalSimCost != 0 {
		t.Fatalf("second run replayed=%d cost=%d, want 9/0", rep2.Replayed, rep2.TotalSimCost)
	}
	if sys.boots.Load() != boots1 {
		t.Fatalf("second run booted the system %d extra times", sys.boots.Load()-boots1)
	}
	if got, want := rep2.CountByReaction(), rep1.CountByReaction(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed tallies differ: %v vs %v", got, want)
	}
	// A replayed outcome equals the recorded one, field for field.
	if len(rep2.Outcomes) != len(rep1.Outcomes) {
		t.Fatalf("replayed %d outcomes, recorded %d", len(rep2.Outcomes), len(rep1.Outcomes))
	}
	for j, o := range rep2.Outcomes {
		if !reflect.DeepEqual(o, rep1.Outcomes[j]) {
			t.Fatalf("replayed outcome %d = %+v, recorded %+v", j, o, rep1.Outcomes[j])
		}
	}

	// Run 3: the constraint's identity changed — every misconfiguration
	// violating it re-executes.
	c2 := rangeC("p", 5)
	rep3, st3, err := campaign(t, context.Background(), store, sys, mkSet(c2), misconfs(c2, 9), defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Replayed || st3.Retests != 9 {
		t.Fatalf("revision run status = %+v, want 9 delta retests", st3)
	}
	if rep3.TotalSimCost == 0 {
		t.Fatal("revision run executed nothing fresh")
	}
}

func TestCampaignDeltaRetestsOnlyAffected(t *testing.T) {
	store := openStore(t)
	sys := &storeSystem{}
	cP := basicC("p")
	cQ := rangeC("q", 1)
	ms := misconfs(cP, 6)
	ms = append(ms, confgen.Misconf{
		ID: "q-low", Param: "q", Values: map[string]string{"q": "0"}, Violates: cQ,
	})

	if _, _, err := campaign(t, context.Background(), store, sys, mkSet(cP, cQ), ms, defaults()); err != nil {
		t.Fatal(err)
	}
	boots := sys.boots.Load()

	// Revision moves q's range; p's six misconfigurations must replay
	// and only q's re-executes.
	cQ2 := rangeC("q", 4)
	ms2 := append(append([]confgen.Misconf(nil), ms[:6]...), confgen.Misconf{
		ID: "q-low", Param: "q", Values: map[string]string{"q": "0"}, Violates: cQ2,
	})
	rep, st, err := campaign(t, context.Background(), store, sys, mkSet(cP, cQ2), ms2, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Replayed || st.Retests != 1 {
		t.Fatalf("status = %+v, want exactly one delta retest", st)
	}
	if rep.Replayed != 6 {
		t.Fatalf("replayed %d outcomes, want 6", rep.Replayed)
	}
	if got := sys.boots.Load() - boots; got != 1 {
		t.Fatalf("revision booted %d times, want 1 (only q)", got)
	}
}

// assertFullFallback reruns a campaign over a snapshot damaged by
// damage and requires a full campaign whose fallback reason contains
// want, followed by a valid rebuilt snapshot.
func assertFullFallback(t *testing.T, want string, damage func([]byte) []byte) {
	t.Helper()
	store := openStore(t)
	sys := &storeSystem{}
	c := basicC("p")
	set := mkSet(c)
	ms := misconfs(c, 6)
	if _, _, err := campaign(t, context.Background(), store, sys, set, ms, defaults()); err != nil {
		t.Fatal(err)
	}
	path := store.Path(sys.Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, damage(data), 0o644); err != nil {
		t.Fatal(err)
	}

	boots := sys.boots.Load()
	rep, st, err := campaign(t, context.Background(), store, sys, set, ms, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed || !strings.Contains(st.Fallback, want) {
		t.Fatalf("status = %+v, want a %q fallback", st, want)
	}
	if rep.Replayed != 0 {
		t.Fatalf("damaged snapshot replayed %d outcomes", rep.Replayed)
	}
	if got := sys.boots.Load() - boots; got != 6 {
		t.Fatalf("fallback booted %d times, want the full 6", got)
	}
	if _, err := store.Load(sys.Name()); err != nil {
		t.Fatalf("snapshot not rebuilt after fallback: %v", err)
	}
}

func TestCampaignFallsBackOnStaleSnapshot(t *testing.T) {
	assertFullFallback(t, "stale", func(data []byte) []byte {
		return []byte(strings.Replace(string(data), campaignstore.SchemaFingerprint(), "v0-0123456789abcdef", 1))
	})
}

// TestCampaignFallsBackOnCorruptBinary: a truncated snapshot triggers a
// full campaign that rebuilds it, never a partial replay.
func TestCampaignFallsBackOnCorruptBinary(t *testing.T) {
	assertFullFallback(t, "corrupt", func(data []byte) []byte {
		return data[:len(data)-5]
	})
}

func TestCampaignFallsBackOnChangedOptions(t *testing.T) {
	store := openStore(t)
	sys := &storeSystem{}
	c := basicC("p")
	set := mkSet(c)
	ms := misconfs(c, 6)
	if _, _, err := campaign(t, context.Background(), store, sys, set, ms, defaults()); err != nil {
		t.Fatal(err)
	}
	boots := sys.boots.Load()

	// The optimizations change what SimCost/FailedTest measure, so a
	// -no-optimizations run must not replay optimized outcomes.
	noOpt := defaults()
	noOpt.Inject.StopOnFirstFailure = false
	noOpt.Inject.SortTests = false
	rep, st, err := campaign(t, context.Background(), store, sys, set, ms, noOpt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed || !strings.Contains(st.Fallback, "options changed") {
		t.Fatalf("status = %+v, want options-changed fallback", st)
	}
	if rep.Replayed != 0 || sys.boots.Load()-boots != 6 {
		t.Fatalf("optimized outcomes replayed under -no-optimizations (replayed=%d, boots=%d)",
			rep.Replayed, sys.boots.Load()-boots)
	}

	// The rebuilt snapshot replays for the same no-opt options...
	rep2, st2, err := campaign(t, context.Background(), store, sys, set, ms, noOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Replayed || rep2.Replayed != 6 {
		t.Fatalf("no-opt snapshot did not replay for matching options: %+v", st2)
	}
}

func TestCampaignCancelThenResume(t *testing.T) {
	store := openStore(t)
	sys := &storeSystem{}
	c := basicC("p")
	set := mkSet(c)
	ms := misconfs(c, 20)

	// Cancel after the third completed outcome; the campaign runs on a
	// one-worker pool so exactly the finished prefix is recorded.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := defaults()
	opts.Workers = 1
	opts.OnProgress = func(p shard.Progress) {
		if p.Done == 3 {
			cancel()
		}
	}
	rep, st, err := campaign(t, ctx, store, sys, set, ms, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !st.Saved {
		t.Fatal("cancelled run did not save its partial snapshot")
	}
	finished := 0
	for _, o := range rep.Outcomes {
		if o.Err == "" {
			finished++
		}
	}
	snap, err := store.Load(sys.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Outcomes) != finished {
		t.Fatalf("snapshot holds %d outcomes, want the %d finished ones", len(snap.Outcomes), finished)
	}
	for _, o := range snap.Outcomes {
		if o.Err != "" || o.Skipped {
			t.Fatalf("snapshot cached an unfinished outcome: %+v", o)
		}
	}

	// Resume: only the unfinished misconfigurations re-execute.
	boots := sys.boots.Load()
	rep2, st2, err := campaign(t, context.Background(), store, sys, set, ms, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Replayed || st2.Retests != 0 {
		t.Fatalf("resume status = %+v", st2)
	}
	if rep2.Replayed != finished {
		t.Fatalf("resume replayed %d outcomes, want %d", rep2.Replayed, finished)
	}
	if got, want := int(sys.boots.Load()-boots), len(ms)-finished; got != want {
		t.Fatalf("resume booted %d times, want exactly the %d unfinished", got, want)
	}
}

// TestCampaignReexecutesStoredHarnessError: an outcome stored with a
// harness error (Outcome.Err) never replays. Snapshot files are disk
// input and a merge copies records verbatim, so such a record can
// reach a store; the next run re-executes it once and saves its real
// outcome, and the run after that replays everything.
func TestCampaignReexecutesStoredHarnessError(t *testing.T) {
	store := openStore(t)
	sys := &storeSystem{}
	c := basicC("p")
	set := mkSet(c)
	ms := misconfs(c, 6)
	if _, _, err := campaign(t, context.Background(), store, sys, set, ms, defaults()); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Load(sys.Name())
	if err != nil {
		t.Fatal(err)
	}
	key := inject.CacheKey(ms[0])
	o := snap.Outcomes[key]
	o.Err = "harness: boom"
	snap.Outcomes[key] = o
	lk, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	if err := lk.Set().Save(snap); err != nil {
		t.Fatal(err)
	}
	if err := lk.Unlock(); err != nil {
		t.Fatal(err)
	}

	for run, want := range []struct{ replayed, boots int32 }{{5, 1}, {6, 0}} {
		boots := sys.boots.Load()
		rep, _, err := campaign(t, context.Background(), store, sys, set, ms, defaults())
		if err != nil {
			t.Fatal(err)
		}
		if int32(rep.Replayed) != want.replayed || sys.boots.Load()-boots != want.boots || len(rep.Errors()) != 0 {
			t.Fatalf("run %d: replayed %d with %d boots and %d harness errors, want %d replayed, %d boots, no errors",
				run+1, rep.Replayed, sys.boots.Load()-boots, len(rep.Errors()), want.replayed, want.boots)
		}
	}
	snap, err = store.Load(sys.Name())
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Outcomes[key]; got.Err != "" || got.Reaction != o.Reaction {
		t.Fatalf("stored outcome after the retest = %+v, want the executed reaction %v with no error", got, o.Reaction)
	}
}

// TestCampaignSavesUnlessUnchanged: a run over a stored snapshot still
// saves when that snapshot is not what a save would write — keys that
// left the campaign (pruned), a record or a header that does not match
// the workload's encodings or a record whose bytes json.Marshal would
// not write (decoded in full), a missing outcome (executed) — and the
// rerun after that save finds it unchanged. The saved snapshot is the
// one a cold campaign of the workload writes, and a fresh store's index
// carries its fingerprint.
func TestCampaignSavesUnlessUnchanged(t *testing.T) {
	c, q := basicC("p"), rangeC("q", 1)
	set := mkSet(c, q)
	ms := misconfs(c, 6)
	key := inject.CacheKey(ms[0])
	for _, tc := range []struct {
		name string
		// edit changes the stored snapshot or the workload to rerun.
		edit func(snap *campaignstore.Snapshot, w *shard.Workload)
		// file, if set, rewrites the saved snapshot file's bytes.
		file func(t *testing.T, data []byte, snap *campaignstore.Snapshot) []byte
		want campaignstore.Status
	}{
		{"keys that left the campaign", func(_ *campaignstore.Snapshot, w *shard.Workload) {
			// As Plan.Apply leaves a shard: the full campaign's encodings.
			w.Ms, w.Keys = w.Ms[:4], w.Keys[:4]
		}, nil, campaignstore.Status{Replayed: true, Pruned: 2, Saved: true}},
		{"a record's misconfiguration", func(snap *campaignstore.Snapshot, _ *shard.Workload) {
			o := snap.Outcomes[key]
			o.Misconf.Description = "edited"
			snap.Outcomes[key] = o
		}, nil, campaignstore.Status{Replayed: true, FullDecodes: 1, Saved: true}},
		{"a space after a record's misconfiguration", func(*campaignstore.Snapshot, *shard.Workload) {},
			func(t *testing.T, data []byte, snap *campaignstore.Snapshot) []byte {
				return respace(t, data, snap.Outcomes[key])
			}, campaignstore.Status{Replayed: true, FullDecodes: 1, Saved: true}},
		{"a constraint's location", func(snap *campaignstore.Snapshot, _ *shard.Workload) {
			moved := *q
			moved.Loc.Line = 42
			snap.Constraints = mkSet(c, &moved)
		}, nil, campaignstore.Status{Replayed: true, FullHeader: true, Saved: true}},
		{"a missing outcome", func(snap *campaignstore.Snapshot, _ *shard.Workload) {
			delete(snap.Outcomes, key)
		}, nil, campaignstore.Status{Replayed: true, Saved: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := openStore(t)
			w := workload(&storeSystem{}, set, ms)
			if _, _, err := campaignOf(t, context.Background(), store, w, defaults()); err != nil {
				t.Fatal(err)
			}
			snap, err := store.Load("storefake")
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(snap, &w)
			lk, err := store.Lock()
			if err != nil {
				t.Fatal(err)
			}
			if err := lk.Set().Save(snap); err != nil {
				t.Fatal(err)
			}
			if err := lk.Unlock(); err != nil {
				t.Fatal(err)
			}
			if tc.file != nil {
				data, err := os.ReadFile(store.Path("storefake"))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(store.Path("storefake"), tc.file(t, data, snap), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for run, want := range []campaignstore.Status{tc.want, {Replayed: true, Unchanged: true}} {
				_, st, err := campaignOf(t, context.Background(), store, w, defaults())
				if err != nil {
					t.Fatal(err)
				}
				if st.Path = ""; st != want {
					t.Fatalf("run %d: status %+v, want %+v", run+1, st, want)
				}
			}
			cold := openStore(t)
			if _, _, err := campaignOf(t, context.Background(), cold, w, defaults()); err != nil {
				t.Fatal(err)
			}
			var fps [2]string
			var sets [2][]byte
			for k, s := range []*campaignstore.Store{store, cold} {
				snap, err := s.Load("storefake")
				if err != nil {
					t.Fatal(err)
				}
				if fps[k], err = snap.Fingerprint(); err != nil {
					t.Fatal(err)
				}
				if sets[k], err = json.Marshal(snap.Constraints); err != nil {
					t.Fatal(err)
				}
			}
			if fps[0] != fps[1] || !bytes.Equal(sets[0], sets[1]) {
				t.Errorf("the saved snapshot differs from a cold campaign's: fingerprint %s vs %s, set\n%s\n%s", fps[0], fps[1], sets[0], sets[1])
			}
			fresh, err := campaignstore.Open(filepath.Dir(store.Path("storefake")))
			if err != nil {
				t.Fatal(err)
			}
			idx, err := fresh.LoadIndex("storefake")
			if err != nil {
				t.Fatal(err)
			}
			if idx.Fingerprint != fps[0] {
				t.Errorf("a fresh store's index fingerprint is %s, Snapshot.Fingerprint %s", idx.Fingerprint, fps[0])
			}
		})
	}
}

// respace is data, a saved snapshot file, with a space after the comma
// that follows o's misconfiguration in o's record, and that record's
// length prefix and the file's CRC rewritten to match: a valid file
// holding bytes json.Marshal never writes.
func respace(t *testing.T, data []byte, o inject.Outcome) []byte {
	t.Helper()
	payload, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(payload, []byte(`,"Reaction":`)) + 1
	spaced := slices.Concat(payload[:i], []byte(" "), payload[i:])
	framed := func(b []byte) []byte { return append(binary.AppendUvarint(nil, uint64(len(b))), b...) }
	out := bytes.Replace(data, framed(payload), framed(spaced), 1)
	if len(out) != len(data)+1 {
		t.Fatalf("the file does not hold the record's payload once")
	}
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// TestCampaignReplayRefreshesMovedLocation: a revision that moves a
// constraint's source location without changing its identity replays
// its outcomes, and both the report and the saved snapshot carry the
// new location. The move changes the bytes of the header's constraint
// set and of that constraint's misconfigurations, so exactly those
// take the full decode, and the report equals a plain decode's; the
// next run matches every byte again.
func TestCampaignReplayRefreshesMovedLocation(t *testing.T) {
	store := openStore(t)
	sys := &storeSystem{}
	c := basicC("p")
	c.Loc = constraint.SourceLoc{File: "cfg.c", Line: 10}
	q := rangeC("q", 1)
	qms := []confgen.Misconf{{ID: "q-low", Param: "q", Values: map[string]string{"q": "0"}, Violates: q}}
	if _, _, err := campaign(t, context.Background(), store, sys, mkSet(c, q), append(misconfs(c, 3), qms...), defaults()); err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(store.Path(sys.Name()))
	if err != nil {
		t.Fatal(err)
	}

	moved := basicC("p")
	moved.Loc = constraint.SourceLoc{File: "cfg.c", Line: 42}
	w := workload(sys, mkSet(moved, q), append(misconfs(moved, 3), qms...))
	rep, st, err := campaignOf(t, context.Background(), store, w, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 4 {
		t.Fatalf("replayed %d of 4 outcomes", rep.Replayed)
	}
	if !st.FullHeader || st.FullDecodes != 3 {
		t.Errorf("full header %v, %d records decoded in full; want the header and the 3 moved ones", st.FullHeader, st.FullDecodes)
	}
	for _, o := range rep.Outcomes[:3] {
		if o.Loc != moved.Loc {
			t.Fatalf("replayed outcome at %v, want the moved location %v", o.Loc, moved.Loc)
		}
	}
	snap, err := store.Load(sys.Name())
	if err != nil {
		t.Fatal(err)
	}
	for k, o := range snap.Outcomes {
		if o.Misconf.Param == "p" && o.Loc != moved.Loc {
			t.Fatalf("saved outcome %q at %v, want the moved location %v", k, o.Loc, moved.Loc)
		}
	}
	fp, err := snap.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	// The same revision over the same store without canonical encodings.
	if err := os.WriteFile(store.Path(sys.Name()), stored, 0o644); err != nil {
		t.Fatal(err)
	}
	plain := w
	plain.Canon = nil
	plainRep, plainSt, err := campaignOf(t, context.Background(), store, plain, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, plainRep) || plainSt.Replayed != st.Replayed || plainSt.Retests != st.Retests {
		t.Errorf("canonical decode reported %+v (%+v), plain decode %+v (%+v)", rep, st, plainRep, plainSt)
	}
	plainSnap, err := store.Load(sys.Name())
	if err != nil {
		t.Fatal(err)
	}
	if plainFP, err := plainSnap.Fingerprint(); err != nil || plainFP != fp {
		t.Errorf("plain decode saved fingerprint %s (%v), canonical decode %s", plainFP, err, fp)
	}

	_, st, err = campaignOf(t, context.Background(), store, w, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if st.FullHeader || st.FullDecodes != 0 {
		t.Errorf("the run after the revision: full header %v, %d records decoded in full; want none", st.FullHeader, st.FullDecodes)
	}
}

// TestSavedSnapshotsKeepPlainEncodings: whichever way a campaign ends —
// cold, warm, a delta retest, cancelled, or a shard refresh carrying its
// peers' outcomes (Workload.Keep) — the saved header's constraint bytes
// are json.Marshal of the set under its own fingerprint, and every
// record's payload is json.Marshal of its decoded outcome: the bytes the
// canonical decode matches, and the bytes every fingerprint hashes.
func TestSavedSnapshotsKeepPlainEncodings(t *testing.T) {
	store := openStore(t)
	sys := &storeSystem{}
	cP, cQ := basicC("p"), rangeC("q", 1)
	cP.Loc = constraint.SourceLoc{File: "cfg.c", Line: 7, Func: "load"}
	msFor := func(q *constraint.Constraint) []confgen.Misconf {
		return append(misconfs(cP, 12), confgen.Misconf{ID: "q-low", Param: "q", Values: map[string]string{"q": "0"}, Violates: q})
	}
	w := workload(sys, mkSet(cP, cQ), msFor(cQ))
	check := func(stage string, w shard.Workload) {
		t.Helper()
		if _, _, err := campaignOf(t, context.Background(), store, w, defaults()); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		assertPlainEncodings(t, stage, store, sys.Name(), w.Set)
	}
	check("cold", w)
	check("warm", w)
	cQ2 := rangeC("q", 4)
	w = workload(sys, mkSet(cP, cQ2), msFor(cQ2))
	check("delta retest", w)

	moved := *cP
	moved.Loc.Line = 70
	w = workload(sys, mkSet(&moved, cQ2), append(misconfs(&moved, 12), w.Ms[12]))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := defaults()
	opts.Workers = 1
	opts.OnProgress = func(p shard.Progress) {
		if p.Done == 3 {
			cancel()
		}
	}
	if _, _, err := campaignOf(t, ctx, store, w, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: %v, want context.Canceled", err)
	}
	assertPlainEncodings(t, "cancelled", store, sys.Name(), w.Set)
	check("resumed", w)
	refresh := shard.Plan{Shard: 1, Of: 2}.Apply([]shard.Workload{w})[0]
	if len(refresh.Ms) == len(w.Ms) || len(refresh.Keep) != len(w.Ms) {
		t.Fatalf("shard 1/2 owns %d of %d and keeps %d", len(refresh.Ms), len(w.Ms), len(refresh.Keep))
	}
	check("shard refresh", refresh)
	snap, err := store.Load(sys.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Outcomes) != len(w.Ms) {
		t.Fatalf("the shard refresh saved %d of %d outcomes", len(snap.Outcomes), len(w.Ms))
	}
}

// assertPlainEncodings reads the system's snapshot file's raw header and
// records and fails unless they hold exactly the json.Marshal bytes of
// the set, with its fingerprint, and of each decoded outcome.
func assertPlainEncodings(t *testing.T, stage string, store *campaignstore.Store, system string, set *constraint.Set) {
	t.Helper()
	data, err := os.ReadFile(store.Path(system))
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(data[len("SPEXSNP1"):])
	n, err := binary.ReadUvarint(r)
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, n)
	if _, err := io.ReadFull(r, head); err != nil {
		t.Fatal(err)
	}
	var hdr struct {
		SetFingerprint string          `json:"set_fingerprint"`
		Constraints    json.RawMessage `json:"constraints"`
	}
	if err := json.Unmarshal(head, &hdr); err != nil {
		t.Fatal(err)
	}
	if want, err := json.Marshal(set); err != nil || !bytes.Equal(hdr.Constraints, want) {
		t.Errorf("%s: header constraint bytes are not json.Marshal of the set (%v)", stage, err)
	}
	if hdr.SetFingerprint != set.Fingerprint() {
		t.Errorf("%s: header set fingerprint %s, want %s", stage, hdr.SetFingerprint, set.Fingerprint())
	}
	d, err := store.OpenSnapshot(system)
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	for {
		key, _, payload, out, err := d.Next()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if want, err := json.Marshal(out); err != nil || !bytes.Equal(payload, want) {
			t.Errorf("%s: record %q is not json.Marshal of its outcome (%v)", stage, key, err)
		}
	}
}

// TestResavesMatchPlainSaves: over the seven targets, after a cold
// CampaignAll every snapshot file holds exactly the bytes a save of its
// loaded snapshot writes (same SavedAt and stamps), and a warm
// CampaignAll, which changes nothing, reports every system unchanged
// and leaves every file's bytes and mtime as the cold one wrote them.
func TestResavesMatchPlainSaves(t *testing.T) {
	systems := targets.All()
	rs, err := spex.InferAll(context.Background(), systems, 2)
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := shard.BuildWorkloads(systems, rs, shard.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	store, plain := openStore(t), openStore(t)
	var locks [2]*campaignstore.LockSet
	for i, s := range []*campaignstore.Store{store, plain} {
		lk, err := s.Lock()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := lk.Unlock(); err != nil {
				t.Error(err)
			}
		})
		locks[i] = lk.Set()
	}
	opts := shard.Options{Workers: 2, Inject: inject.DefaultOptions()}
	cold := map[string][]byte{}
	mtimes := map[string]time.Time{}
	for _, warm := range []bool{false, true} {
		runs, err := shard.CampaignAll(context.Background(), locks[0], ws, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range ws {
			name := w.Sys.Name()
			if st := runs[i].Status; st.Saved == warm || st.Unchanged != warm || st.Replayed != warm || runs[i].Err != nil {
				t.Fatalf("%s (warm %v): saved %v, unchanged %v, replayed %v: %v", name, warm, st.Saved, st.Unchanged, st.Replayed, runs[i].Err)
			}
			got, err := os.ReadFile(store.Path(name))
			if err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(store.Path(name))
			if err != nil {
				t.Fatal(err)
			}
			if warm {
				if !bytes.Equal(got, cold[name]) || !fi.ModTime().Equal(mtimes[name]) {
					t.Errorf("%s: the warm campaign rewrote the snapshot (mtime %v, was %v)", name, fi.ModTime(), mtimes[name])
				}
				continue
			}
			cold[name], mtimes[name] = got, fi.ModTime()
			snap, err := store.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := locks[1].Save(snap); err != nil {
				t.Fatal(err)
			}
			if want, err := os.ReadFile(plain.Path(name)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: the saved file differs from a save of its loaded snapshot (%v)", name, err)
			}
		}
	}
}

// TestColdIndexesMatchSavedIndexes: after a cold CampaignAll over the
// seven targets, each index a freshly opened store's LoadIndexAll builds
// in one pass over the snapshot equals the one the saving store's writer
// built and holds: docs, posting lists, aggregates, fingerprint and
// header fields. Each fingerprint is Snapshot.Fingerprint of the loaded
// snapshot.
func TestColdIndexesMatchSavedIndexes(t *testing.T) {
	systems := targets.All()
	rs, err := spex.InferAll(context.Background(), systems, 2)
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := shard.BuildWorkloads(systems, rs, shard.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := campaignstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lk, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Unlock()
	runs, err := shard.CampaignAll(context.Background(), lk.Set(), ws, shard.Options{Workers: 2, Inject: inject.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Err != nil || !r.Status.Saved {
			t.Fatalf("%s: saved %v: %v", r.Sys.Name(), r.Status.Saved, r.Err)
		}
	}
	held, err := store.LoadIndexAll()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := campaignstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := fresh.LoadIndexAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(held) != len(ws) || len(rebuilt) != len(ws) {
		t.Fatalf("the saving store holds %d indexes and a fresh store builds %d, want %d", len(held), len(rebuilt), len(ws))
	}
	for i, want := range held {
		if !reflect.DeepEqual(rebuilt[i], want) {
			t.Errorf("%s: a fresh store builds an index other than the saved one", want.System)
		}
		snap, err := fresh.Load(want.System)
		if err != nil {
			t.Fatal(err)
		}
		if fp, err := snap.Fingerprint(); err != nil || fp != rebuilt[i].Fingerprint {
			t.Errorf("%s: index fingerprint %s, Snapshot.Fingerprint %s (%v)", want.System, rebuilt[i].Fingerprint, fp, err)
		}
	}
}
