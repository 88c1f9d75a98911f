package coord

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/inject"
	"spex/internal/obs"
	"spex/internal/shard"
	"spex/internal/sim"
	"spex/internal/spex"
	"spex/internal/targets/ldapd"
	"spex/internal/targets/mydb"
)

// resultSink collects the WorkerResults of in-process workers.
type resultSink struct {
	mu   sync.Mutex
	runs []*WorkerResult
}

func (s *resultSink) add(r *WorkerResult) {
	s.mu.Lock()
	s.runs = append(s.runs, r)
	s.mu.Unlock()
}

// executed sums the outcomes the collected runs freshly executed
// (finished minus replayed) — the metric the zero-duplication
// assertions are about.
func (s *resultSink) executed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, wr := range s.runs {
		for _, run := range wr.Runs {
			n += run.Report.Finished() - run.Report.Replayed
		}
	}
	return n
}

// inprocSpawner runs workers as goroutines calling RunWorker — the
// test and benchmark backend. tune customizes one worker's options
// (e.g. a per-worker SimCostDelay modeling a slow machine).
func inprocSpawner(ws []shard.Workload, base WorkerOptions, tune func(worker int, o *WorkerOptions), sink *resultSink) SpawnFunc {
	return func(ctx context.Context, spec WorkerSpec) (Handle, error) {
		o := base
		if tune != nil {
			tune(spec.Worker, &o)
		}
		wctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() {
			res, err := RunWorker(wctx, spec.LeasePath, spec.StateDir, ws, o)
			if sink != nil && res != nil {
				sink.add(res)
			}
			done <- err
		}()
		return &inprocHandle{cancel: cancel, done: done}, nil
	}
}

type inprocHandle struct {
	cancel context.CancelFunc
	done   chan error
}

func (h *inprocHandle) Wait() error { return <-h.done }
func (h *inprocHandle) Interrupt()  { h.cancel() }

// campaignOf infers a system and builds its full workload — the
// coordinator's and the baselines' shared input.
func campaignOf(t testing.TB, sys sim.System) shard.Workload {
	t.Helper()
	res, err := spex.InferSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := shard.BuildWorkloads([]sim.System{sys}, []*spex.Result{res}, shard.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	return ws[0]
}

// unshardedFingerprint runs the plain store-backed campaign and returns
// the canonical snapshot fingerprint a coordinated run must reproduce.
func unshardedFingerprint(t testing.TB, w shard.Workload) string {
	t.Helper()
	store, err := campaignstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lk, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.CampaignAll(context.Background(), lk.Set(), []shard.Workload{w},
		shard.Options{Workers: 4, Inject: inject.DefaultOptions()}); err != nil {
		t.Fatal(err)
	}
	if err := lk.Unlock(); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Load(w.Sys.Name())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := snap.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func testConfig(stateDir string, ws []shard.Workload, spawn SpawnFunc) Config {
	return Config{
		StateDir:  stateDir,
		Workers:   2,
		Workloads: ws,
		Inject:    inject.DefaultOptions(),
		StealMin:  2,
		Poll:      10 * time.Millisecond,
		Spawn:     spawn,
	}
}

// runLocked runs the coordinator under the state root's writer lock,
// scoped to the campaign's systems — the lock every caller of Run
// holds.
func runLocked(t testing.TB, ctx context.Context, cfg Config) (*Result, error) {
	t.Helper()
	root, err := campaignstore.Open(cfg.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	lk, err := root.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := lk.Unlock(); err != nil {
			t.Error(err)
		}
	}()
	names := make([]string, len(cfg.Workloads))
	for i, w := range cfg.Workloads {
		names[i] = w.Sys.Name()
	}
	cfg.Locks = lk.Set(names...)
	return Run(ctx, cfg)
}

// TestCoordinatorMatchesUnsharded is the acceptance criterion's first
// half: a coordinated run's merged store fingerprint equals the
// unsharded run's, and a subsequent plain -state run replays 100% of
// it at zero fresh cost.
func TestCoordinatorMatchesUnsharded(t *testing.T) {
	sys := ldapd.New()
	w := campaignOf(t, sys)
	want := unshardedFingerprint(t, w)

	stateDir := t.TempDir()
	ws := []shard.Workload{w}
	cfg := testConfig(stateDir, ws, inprocSpawner(ws, WorkerOptions{Workers: 2, Inject: inject.DefaultOptions(), Poll: 10 * time.Millisecond}, nil, nil))
	res, err := runLocked(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 1 || res.Stats[0].Outcomes != len(w.Ms) {
		t.Fatalf("merge stats = %+v, want %d outcomes for one system", res.Stats, len(w.Ms))
	}
	if res.Stats[0].Fingerprint != want {
		t.Errorf("coordinated store fingerprint %s != unsharded %s", res.Stats[0].Fingerprint, want)
	}

	// The merged root must replay byte-identically, with zero fresh work.
	root, err := campaignstore.Open(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	rootLock, err := root.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer rootLock.Unlock()
	runs, err := shard.CampaignAll(context.Background(), rootLock.Set(), []shard.Workload{w},
		shard.Options{Workers: 4, Inject: inject.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs[0].Report.Replayed; got != len(w.Ms) {
		t.Errorf("replay after coordination executed work: replayed %d of %d", got, len(w.Ms))
	}
}

// TestCoordinatorMergesOnlyItsSystems: shard directories keep the
// snapshots of earlier campaigns, so a coordinated run over one system
// must merge only that system. The root's other system keeps the newer
// snapshot a plain run saved after its own coordinated run — recorded
// under other options, so a merge from the stale shards would show.
func TestCoordinatorMergesOnlyItsSystems(t *testing.T) {
	ctx := context.Background()
	stateDir := t.TempDir()
	wopts := WorkerOptions{Workers: 2, Inject: inject.DefaultOptions(), Poll: 10 * time.Millisecond}
	coordinate := func(sys sim.System) *Result {
		t.Helper()
		ws := []shard.Workload{campaignOf(t, sys)}
		res, err := runLocked(t, ctx, testConfig(stateDir, ws, inprocSpawner(ws, wopts, nil, nil)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	coordinate(mydb.New())

	root, err := campaignstore.Open(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	newer := inject.DefaultOptions()
	newer.SortTests = !newer.SortTests
	lk, err := root.Lock()
	if err != nil {
		t.Fatal(err)
	}
	_, err = shard.CampaignAll(ctx, lk.Set(), []shard.Workload{campaignOf(t, mydb.New())},
		shard.Options{Workers: 2, Inject: newer})
	if uerr := lk.Unlock(); uerr != nil {
		t.Fatal(uerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	before, err := root.Load("mydb")
	if err != nil {
		t.Fatal(err)
	}
	wantFP, err := before.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	res := coordinate(ldapd.New())
	if len(res.Stats) != 1 || res.Stats[0].System != "ldapd" {
		t.Fatalf("ldapd run merged %+v, want ldapd alone", res.Stats)
	}
	after, err := root.Load("mydb")
	if err != nil {
		t.Fatal(err)
	}
	if after.Options != campaignstore.OptionsID(newer) {
		t.Errorf("mydb options reverted to %q by the ldapd run", after.Options)
	}
	if fp, err := after.Fingerprint(); err != nil || fp != wantFP {
		t.Errorf("mydb fingerprint %s (%v) after the ldapd run, want %s", fp, err, wantFP)
	}
}

// TestWorkStealingRebalances models a heterogeneous fleet (worker 1 on
// a machine 60x slower per simulated cost unit): the fast worker must
// drain, steal a suffix of the laggard's lease, and the merged result
// must still be byte-identical to the unsharded campaign — stealing
// moves work, never changes outcomes. Under a traced ctx, each spawn
// and each steal is one span.
func TestWorkStealingRebalances(t *testing.T) {
	sys := ldapd.New()
	w := campaignOf(t, sys)
	want := unshardedFingerprint(t, w)

	stateDir := t.TempDir()
	ws := []shard.Workload{w}
	base := WorkerOptions{Workers: 1, Inject: inject.DefaultOptions(), Poll: 5 * time.Millisecond}
	tune := func(worker int, o *WorkerOptions) {
		if worker == 1 {
			o.Inject.SimCostDelay = 3 * time.Millisecond
		} else {
			o.Inject.SimCostDelay = 50 * time.Microsecond
		}
	}
	var events []Event
	var mu sync.Mutex
	cfg := testConfig(stateDir, ws, inprocSpawner(ws, base, tune, nil))
	cfg.Poll = 5 * time.Millisecond
	cfg.OnEvent = func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	tr := obs.NewTrace("job")
	ctx, job := tr.Start(context.Background(), obs.SpanJob, "job")
	res, err := runLocked(t, ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	job.End("done")
	if res.Steals == 0 {
		t.Error("no steal despite a 60x-skewed worker (the rebalance never engaged)")
	}
	count := map[string]int{}
	for _, sp := range tr.Doc().Spans {
		count[sp.Kind]++
		if sp.Kind == obs.SpanSteal && (sp.Status != "ok" || sp.Parent != "s1" || sp.Attrs["keys"] == "" || sp.Attrs["keys"] == "0") {
			t.Errorf("steal span %s: %+v", sp.Name, sp)
		}
	}
	if count[obs.SpanSteal] != res.Steals || count[obs.SpanWorker] != res.Spawns {
		t.Errorf("%d steal and %d worker spans for %d steals and %d spawns",
			count[obs.SpanSteal], count[obs.SpanWorker], res.Steals, res.Spawns)
	}
	if res.Stats[0].Fingerprint != want {
		t.Errorf("fingerprint after stealing %s != unsharded %s", res.Stats[0].Fingerprint, want)
	}
	// Every steal must have respawned the thief.
	if res.Spawns < 2+res.Steals {
		t.Errorf("%d spawns for %d steals (thieves not relaunched)", res.Spawns, res.Steals)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, e := range events {
		if e.Kind == "steal" && e.Keys == 0 {
			t.Errorf("steal event moved zero keys: %+v", e)
		}
	}
}

// TestCoordinatorCancelMidSteal is the cancellation satellite: SIGINT
// (modeled as context cancellation) lands exactly when the first steal
// fires. Afterwards every lease key must be either persisted in its
// owner's shard store or still pending, the lease union must cover the
// whole campaign, and a rerun must resume from the leases re-executing
// only what was never persisted — zero duplicated fresh sim cost.
func TestCoordinatorCancelMidSteal(t *testing.T) {
	sys := ldapd.New()
	w := campaignOf(t, sys)
	total := len(w.Ms)
	allKeys := make(map[string]bool, total)
	for _, m := range w.Ms {
		allKeys[shard.GlobalKey(sys.Name(), inject.CacheKey(m))] = true
	}

	stateDir := t.TempDir()
	ws := []shard.Workload{w}
	base := WorkerOptions{Workers: 1, Inject: inject.DefaultOptions(), Poll: 5 * time.Millisecond}
	tune := func(worker int, o *WorkerOptions) {
		if worker == 1 {
			o.Inject.SimCostDelay = 3 * time.Millisecond
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := testConfig(stateDir, ws, inprocSpawner(ws, base, tune, nil))
	cfg.Poll = 5 * time.Millisecond
	cfg.OnEvent = func(e Event) {
		if e.Kind == "steal" {
			cancel() // SIGINT lands mid-steal
		}
	}
	_, err := runLocked(t, ctx, cfg)
	if err == nil {
		t.Fatal("cancelled coordinator returned nil error (steal never fired?)")
	}

	// Invariant 1: the lease union covers the campaign exactly (overlap
	// from the interrupted steal is allowed, gaps are not).
	coordDir := filepath.Join(stateDir, CoordDirName)
	leased := make(map[string]int)
	var leases []*Lease
	for i := 1; i <= cfg.Workers; i++ {
		lease, err := ReadLease(LeasePath(coordDir, i))
		if err != nil {
			t.Fatalf("worker %d lease: %v", i, err)
		}
		leases = append(leases, lease)
		for _, k := range lease.Keys {
			if !allKeys[k.Global()] {
				t.Errorf("worker %d leases foreign key %q", i, k.Key)
			}
			leased[k.Global()]++
		}
	}
	if len(leased) != total {
		t.Fatalf("leases cover %d keys, want the campaign's %d", len(leased), total)
	}
	// Invariant 2: every persisted outcome is still owned by some lease
	// — a lease is "released" only by moving its keys to another lease,
	// never by dropping them — so a resumed campaign replays it.
	persisted := make(map[string]bool)
	for i := 1; i <= cfg.Workers; i++ {
		store, err := campaignstore.Open(ShardDir(stateDir, i))
		if err != nil {
			t.Fatal(err)
		}
		paths, _ := store.Snapshots()
		own := make(map[string]bool)
		for system := range paths {
			snap, err := store.Load(system)
			if err != nil {
				t.Fatal(err)
			}
			for key := range snap.Outcomes {
				g := shard.GlobalKey(snap.System, key)
				own[g] = true
				persisted[g] = true
				if leased[g] == 0 {
					t.Errorf("worker %d persisted %q but no lease owns it", i, g)
				}
			}
		}
		done := 0
		for _, k := range leases[i-1].Keys {
			if own[k.Global()] {
				done++
			}
		}
		t.Logf("worker %d: %d leased, %d of them persisted locally", i, len(leases[i-1].Keys), done)
	}
	if len(persisted) == 0 || len(persisted) == total {
		t.Fatalf("persisted %d of %d outcomes — the cancellation landed outside the interesting window", len(persisted), total)
	}

	// Rerun: resume must replay every persisted outcome and execute
	// exactly the remainder — zero duplicated fresh sim cost. Stealing
	// is disabled for the rerun so the count isolates the resume
	// property: a steal can legitimately duplicate an in-flight or
	// heartbeat-lagged key (safe under freshest-wins), which is a
	// different phenomenon than resume duplication.
	sink := &resultSink{}
	cfg2 := testConfig(stateDir, ws, inprocSpawner(ws, base, nil, sink))
	cfg2.StealMin = -1
	res, err := runLocked(t, context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Error("rerun re-planned instead of resuming the persisted leases")
	}
	if got, want := sink.executed(), total-len(persisted); got != want {
		t.Errorf("rerun executed %d misconfigurations, want %d (persisted outcomes must replay, not re-execute)", got, want)
	}
	fp := unshardedFingerprint(t, w)
	if res.Stats[0].Fingerprint != fp {
		t.Errorf("resumed fingerprint %s != unsharded %s", res.Stats[0].Fingerprint, fp)
	}
}

// TestCoordinatorReplanOnIdentityChange: a manifest that no longer
// matches (different worker count here) must trigger a fresh plan, not
// a resume against incompatible leases.
func TestCoordinatorReplanOnIdentityChange(t *testing.T) {
	sys := ldapd.New()
	w := campaignOf(t, sys)
	ws := []shard.Workload{w}
	stateDir := t.TempDir()
	opts := WorkerOptions{Workers: 2, Inject: inject.DefaultOptions(), Poll: 10 * time.Millisecond}
	cfg := testConfig(stateDir, ws, inprocSpawner(ws, opts, nil, nil))
	if _, err := runLocked(t, context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg3 := testConfig(stateDir, ws, inprocSpawner(ws, opts, nil, nil))
	cfg3.Workers = 3
	res, err := runLocked(t, context.Background(), cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed {
		t.Error("a 3-worker run resumed a 2-worker manifest")
	}
	if res.Stats[0].Fingerprint != unshardedFingerprint(t, w) {
		t.Error("re-planned run diverged from the unsharded fingerprint")
	}
}

// BenchmarkWorkStealing measures the tentpole claim: under a skewed
// SimCostDelay workload (worker 1 models a machine 20x slower per cost
// unit), the static i/N hash partition's wall clock is set by the slow
// shard, while the work-stealing rebalance moves the laggard's suffix
// to the drained fast worker. "static" disables stealing (StealMin<0),
// "steal" enables it; everything else is identical, so the wall-clock
// gap is the rebalance's win.
func BenchmarkWorkStealing(b *testing.B) {
	ws := []shard.Workload{campaignOf(b, mydb.New())}
	base := WorkerOptions{Workers: 1, Inject: inject.DefaultOptions(), Poll: 2 * time.Millisecond}
	tune := func(worker int, o *WorkerOptions) {
		if worker == 1 {
			o.Inject.SimCostDelay = 2 * time.Millisecond
		} else {
			o.Inject.SimCostDelay = 100 * time.Microsecond
		}
	}
	for _, mode := range []struct {
		name     string
		stealMin int
	}{{"static", -1}, {"steal", 2}} {
		b.Run(mode.name, func(b *testing.B) {
			steals := 0
			for i := 0; i < b.N; i++ {
				stateDir := b.TempDir()
				cfg := testConfig(stateDir, ws, inprocSpawner(ws, base, tune, nil))
				cfg.StealMin = mode.stealMin
				cfg.Poll = 2 * time.Millisecond
				res, err := runLocked(b, context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				steals = res.Steals
			}
			b.ReportMetric(float64(steals), "steals")
		})
	}
}

// TestExecSpawnerTemplate checks the placeholder expansion contract the
// CLI template relies on (real worker processes run in cmd/spexinj's
// TestCoordinatorMatchesUnshardedRun).
func TestExecSpawnerTemplate(t *testing.T) {
	dir := t.TempDir()
	spec := WorkerSpec{Worker: 3, LeasePath: "/l/worker3.lease.json", StateDir: "/s/shard3",
		LogPath: filepath.Join(dir, "w.log")}
	spawn := ExecSpawner([]string{"/bin/sh", "-c", "echo {worker} {lease} {state}"})
	h, err := spawn(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(spec.LogPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := "3 /l/worker3.lease.json /s/shard3\n"; string(data) != want {
		t.Errorf("expanded template output %q, want %q", data, want)
	}
}

// TestExpandArgvSSHPreset renders the documented SSH spawn preset (the
// spexinj -spawn template) for one worker and asserts the exact
// command line — the unit-test half of the SSH story; no live SSH runs
// in CI.
func TestExpandArgvSSHPreset(t *testing.T) {
	spec := WorkerSpec{
		Worker:    2,
		LeasePath: "/var/lib/spex/coord/worker2.lease.json",
		StateDir:  "/var/lib/spex/shard2",
	}
	argv := []string{
		"ssh", "worker{worker}.cluster.example", "spexinj",
		"-lease", "{lease}", "-state", "{state}", "-all",
	}
	got := ExpandArgv(argv, spec)
	want := []string{
		"ssh", "worker2.cluster.example", "spexinj",
		"-lease", "/var/lib/spex/coord/worker2.lease.json",
		"-state", "/var/lib/spex/shard2", "-all",
	}
	if len(got) != len(want) {
		t.Fatalf("ExpandArgv rendered %d words, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("argv[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// The template itself must be left untouched (per-worker expansion
	// reuses it).
	if argv[1] != "worker{worker}.cluster.example" {
		t.Errorf("ExpandArgv mutated the template: %q", argv[1])
	}
}

// failOnceSpawner wraps a SpawnFunc, making the first launch of one
// worker slot die immediately with an error — the harness-failure
// respawn scenario of Config.WorkerRetries.
type failOnceSpawner struct {
	mu     sync.Mutex
	inner  SpawnFunc
	worker int
	failed bool
}

type deadHandle struct{ err error }

func (h *deadHandle) Wait() error { return h.err }
func (h *deadHandle) Interrupt()  {}

func (s *failOnceSpawner) spawn(ctx context.Context, spec WorkerSpec) (Handle, error) {
	s.mu.Lock()
	fail := spec.Worker == s.worker && !s.failed
	if fail {
		s.failed = true
	}
	s.mu.Unlock()
	if fail {
		return &deadHandle{err: context.DeadlineExceeded}, nil
	}
	return s.inner(ctx, spec)
}

// TestWorkerRetryRespawnsFailedWorker: a worker that dies on an error
// is respawned on its unchanged lease (up to Config.WorkerRetries) and
// the campaign completes with the canonical fingerprint — the ROADMAP
// follow-on from the work-stealing coordinator.
func TestWorkerRetryRespawnsFailedWorker(t *testing.T) {
	sys := ldapd.New()
	w := campaignOf(t, sys)
	want := unshardedFingerprint(t, w)

	stateDir := t.TempDir()
	ws := []shard.Workload{w}
	inner := inprocSpawner(ws, WorkerOptions{Workers: 2, Inject: inject.DefaultOptions(), Poll: 10 * time.Millisecond}, nil, nil)
	failer := &failOnceSpawner{inner: inner, worker: 1}

	var mu sync.Mutex
	var retries []Event
	cfg := testConfig(stateDir, ws, failer.spawn)
	cfg.WorkerRetries = DefaultWorkerRetries
	cfg.OnEvent = func(e Event) {
		if e.Kind == "retry" {
			mu.Lock()
			retries = append(retries, e)
			mu.Unlock()
		}
	}
	res, err := runLocked(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 || len(retries) != 1 {
		t.Fatalf("res.Retries=%d, retry events=%d, want exactly 1", res.Retries, len(retries))
	}
	if retries[0].Worker != 1 || retries[0].Attempt != 1 || retries[0].Error == "" {
		t.Errorf("retry event = %+v, want worker 1 attempt 1 with the exit error", retries[0])
	}
	if len(res.Stats) != 1 || res.Stats[0].Fingerprint != want {
		t.Errorf("retried campaign fingerprint %+v, want unsharded %s", res.Stats, want)
	}
}

// TestWorkerRetryExhaustedAborts: with retries exhausted the campaign
// must abort with the worker's error, not merge an incomplete store.
func TestWorkerRetryExhaustedAborts(t *testing.T) {
	ws := []shard.Workload{campaignOf(t, ldapd.New())}

	stateDir := t.TempDir()
	inner := inprocSpawner(ws, WorkerOptions{Workers: 2, Inject: inject.DefaultOptions(), Poll: 10 * time.Millisecond}, nil, nil)
	failer := &failOnceSpawner{inner: inner, worker: 1}

	cfg := testConfig(stateDir, ws, failer.spawn)
	cfg.WorkerRetries = 0 // library default: no retries
	_, err := runLocked(t, context.Background(), cfg)
	if err == nil {
		t.Fatal("coordinator merged despite a dead worker and no retries")
	}
}
