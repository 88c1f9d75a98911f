package coord

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/inject"
	"spex/internal/obs"
	"spex/internal/shard"
)

// DefaultStealMin is the K of the rebalance rule: a laggard is only
// robbed while more than this many of its keys are still pending, so
// the coordinator never churns leases over scraps that will drain
// before the thief even boots.
const DefaultStealMin = 8

// DefaultWorkerRetries is the spexinj -worker-retries default: respawn
// a worker that died on a harness error once before aborting the
// campaign — enough to ride out a transient failure (a lost SSH
// connection, an OOM-killed child) without looping forever on a
// deterministic one.
const DefaultWorkerRetries = 1

// Event is one coordinator lifecycle notification, streamed to
// Config.OnEvent (serialized; the CLI prints them to stderr, the
// daemon publishes them onto a job's SSE stream). Its JSON tags are
// the `coord` frame's wire form under dash schema v1.
type Event struct {
	// Kind is "plan", "resume", "spawn", "exit", "retry", "steal", or
	// "merge".
	Kind string `json:"kind"`
	// Worker is the subject (the thief, for steals).
	Worker int `json:"worker,omitempty"`
	// From is the steal victim (steals only).
	From int `json:"from,omitempty"`
	// Keys counts the keys involved: lease size on spawn, stolen count
	// on steal, merged outcomes on merge.
	Keys int `json:"keys,omitempty"`
	// Attempt is the respawn attempt number (retries only): 1 for the
	// first retry, up to Config.WorkerRetries.
	Attempt int `json:"attempt,omitempty"`
	// Error is the worker's exit error, if any (exits and retries).
	Error string `json:"error,omitempty"`
}

// Handle is a launched worker: Wait blocks until it exits, Interrupt
// asks it to stop (SIGINT for processes, context cancellation for
// in-process workers) — the worker saves its finished outcomes on the
// way down.
type Handle interface {
	Wait() error
	Interrupt()
}

// WorkerSpec is everything a spawner needs to launch one worker.
type WorkerSpec struct {
	// Worker is the 1-based slot.
	Worker int
	// LeasePath is the worker's lease file (heartbeat path derives from
	// it, HeartbeatPath).
	LeasePath string
	// StateDir is the worker's private shard store.
	StateDir string
	// LogPath receives the worker's stdout/stderr (process spawners).
	LogPath string
}

// SpawnFunc launches one worker. ExecSpawner runs local child
// processes; an SSH or k8s launcher is the same contract with a
// different command template; tests run workers in-process.
type SpawnFunc func(ctx context.Context, spec WorkerSpec) (Handle, error)

// Config tunes one coordinated campaign.
type Config struct {
	// StateDir is the campaign state root: merged snapshots land here,
	// workers write under StateDir/shard<i>, coordination files under
	// StateDir/coord.
	StateDir string
	// Workers is the number of shard worker slots.
	Workers int
	// Workloads are the full campaign, as shard.BuildWorkloads built it
	// under the zero plan. The coordinator plans its leases over their
	// replay keys; an in-process spawner hands the same slice to
	// RunWorker, which restricts it to each lease. Nothing writes it.
	Workloads []shard.Workload
	// Inject holds the campaign options shared by every worker.
	Inject inject.Options
	// StealMin is the rebalance threshold K: an idle worker steals only
	// from a laggard with more than K pending keys. Zero therefore
	// means "steal any non-empty backlog"; negative disables stealing
	// (static partition). Callers wanting the default pass
	// DefaultStealMin explicitly (the spexinj flag does).
	StealMin int
	// Poll is the heartbeat poll interval (default 250ms).
	Poll time.Duration
	// WorkerRetries bounds how many times a worker that exits with an
	// error (a crashed process, a harness failure — not a context
	// cancellation) is respawned on its unchanged lease before the
	// campaign aborts. Zero disables retries (the library default); the
	// spexinj -worker-retries flag defaults to DefaultWorkerRetries. A
	// retried worker replays its persisted outcomes from its shard
	// store and re-executes only what never saved, so a retry costs one
	// spawn, not a repeated partition.
	WorkerRetries int
	// Locks is the state root's write capability (required), minted
	// from the writer lock the caller holds and scoped to the campaign's
	// systems: spexinj -coordinate locks the root for the run, and the
	// daemon (internal/server) hands each coordinate job the set for the
	// job's systems. The final merge folds exactly the systems the set
	// covers, so shard snapshots an earlier campaign left behind never
	// reach the root. Workers lock their own shard directories.
	Locks *campaignstore.LockSet
	// Spawn launches workers (required).
	Spawn SpawnFunc
	// OnEvent, if set, streams lifecycle events (serialized).
	OnEvent func(Event)
}

// Result is a completed coordinated campaign.
type Result struct {
	// Stats describe the final merge into the state root, one entry per
	// system (shard.MergeStat includes the canonical fingerprint).
	Stats []shard.MergeStat
	// Steals counts rebalances performed.
	Steals int
	// Resumed reports that the run picked up persisted leases from an
	// interrupted campaign instead of re-planning.
	Resumed bool
	// Spawns counts worker launches (initial + post-steal respawns +
	// retries).
	Spawns int
	// Retries counts workers respawned after dying on an error
	// (Config.WorkerRetries).
	Retries int
}

// Run coordinates one distributed campaign end to end: plan (or resume)
// the leases, spawn the workers, watch heartbeats and rebalance by
// stealing, and merge the shard stores into the canonical store at the
// state root through cfg.Locks. See the package comment for the
// protocol. Under a span on ctx (obs.Start), each spawn opens a worker
// span, whose ctx is the one handed to Spawn, and each rebalance a
// steal span.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("coord: %d workers (want at least 1)", cfg.Workers)
	}
	if cfg.StateDir == "" || cfg.Spawn == nil || cfg.Locks == nil || len(cfg.Workloads) == 0 {
		return nil, errors.New("coord: StateDir, Spawn, Locks and Workloads are required")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 250 * time.Millisecond
	}
	emit := func(e Event) {
		if cfg.OnEvent != nil {
			cfg.OnEvent(e)
		}
	}
	coordDir := filepath.Join(cfg.StateDir, CoordDirName)
	if err := os.MkdirAll(coordDir, 0o755); err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}

	// The full workload, in the global scheduler's interleaved order —
	// the execution order leases inherit, which is what makes "steal a
	// suffix of the remaining keys" collide least with the laggard's
	// in-flight front.
	ws := cfg.Workloads
	keys := make([][]string, len(ws))
	sizes := make([]int, len(ws))
	for i := range ws {
		keys[i] = ws[i].ReplayKeys()
		sizes[i] = len(keys[i])
	}
	order := shard.Interleave(sizes)
	allKeys := make([]KeyRef, len(order))
	owners := make([]int, len(order)) // 0-based initial hash assignment
	for i, t := range order {
		sys := ws[t.Target].Sys.Name()
		key := keys[t.Target][t.Index]
		allKeys[i] = KeyRef{System: sys, Key: key}
		owners[i] = shard.Owner(sys, key, cfg.Workers)
	}

	man := &manifest{
		Workers: cfg.Workers,
		Schema:  campaignstore.SchemaFingerprint(),
		Options: campaignstore.OptionsID(cfg.Inject),
		Systems: make(map[string]string, len(ws)),
	}
	for _, w := range ws {
		man.Systems[w.Sys.Name()] = w.Set.Fingerprint()
	}
	leases, resumed, err := planOrResume(coordDir, man, allKeys, owners)
	if err != nil {
		return nil, err
	}
	if resumed {
		emit(Event{Kind: "resume", Keys: len(allKeys)})
	} else {
		emit(Event{Kind: "plan", Keys: len(allKeys)})
	}

	type exitMsg struct {
		worker int // 0-based
		err    error
	}
	exitCh := make(chan exitMsg)
	type workerState struct {
		lease   *Lease
		handle  Handle
		running bool
		retries int
	}
	states := make([]*workerState, cfg.Workers)
	for i := range states {
		states[i] = &workerState{lease: leases[i]}
	}
	res := &Result{Resumed: resumed}
	running := 0
	spawn := func(i int) error {
		// A select with a ready ctx.Done case can still pick another
		// ready branch, so a cancelled coordinator could otherwise keep
		// respawning thieves on its way down; every spawn re-checks.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		spec := WorkerSpec{
			Worker:    i + 1,
			LeasePath: LeasePath(coordDir, i+1),
			StateDir:  ShardDir(cfg.StateDir, i+1),
			LogPath:   filepath.Join(coordDir, fmt.Sprintf("worker%d.log", i+1)),
		}
		wctx, span := obs.Start(ctx, obs.SpanWorker, fmt.Sprintf("worker-%d", i+1))
		span.SetAttr("keys", strconv.Itoa(len(states[i].lease.Keys)))
		h, err := cfg.Spawn(wctx, spec)
		if err != nil {
			endWorker(span, err)
			return fmt.Errorf("coord: spawn worker %d: %w", i+1, err)
		}
		states[i].handle = h
		states[i].running = true
		running++
		res.Spawns++
		mSpawns.Inc()
		mWorkersRunning.Add(1)
		emit(Event{Kind: "spawn", Worker: i + 1, Keys: len(states[i].lease.Keys)})
		go func() {
			err := h.Wait()
			endWorker(span, err)
			exitCh <- exitMsg{worker: i, err: err}
		}()
		return nil
	}
	// exited books a worker's exit. Once no worker runs, no heartbeat is
	// stale.
	exited := func(i int) {
		states[i].running = false
		running--
		mWorkersRunning.Add(-1)
		if running == 0 {
			mHeartbeatLag.Set(0)
		}
	}
	// publishLag sets the heartbeat-lag gauge to the age of the stalest
	// heartbeat among the running workers, so a stuck worker shows while
	// the others are busy and when no steal reads heartbeats. A worker
	// still starting up has written none and is left out.
	publishLag := func() {
		lag := 0.0
		for j, st := range states {
			if !st.running {
				continue
			}
			hb, err := ReadHeartbeat(HeartbeatPath(LeasePath(coordDir, j+1)))
			if err != nil || hb.UpdatedAt.IsZero() {
				continue // a torn write, or no heartbeat yet
			}
			lag = max(lag, time.Since(hb.UpdatedAt).Seconds())
		}
		mHeartbeatLag.Set(lag)
	}
	// abort is the one shutdown path: interrupt every running worker
	// (each saves its finished outcomes on the way down), wait for all
	// exit messages so no spawn goroutine is left blocked on exitCh,
	// and surface err.
	abort := func(err error) (*Result, error) {
		for _, st := range states {
			if st.running {
				st.handle.Interrupt()
			}
		}
		for running > 0 {
			exited((<-exitCh).worker)
		}
		return nil, err
	}

	// trySteal rebalances one idle worker (0-based thief): pick the
	// running laggard with the most pending keys; if more than StealMin
	// are pending, move half of them — the deterministic suffix of the
	// laggard's remaining assignment — to the thief and respawn it.
	// "Pending" means keys that will cost the laggard fresh simulation:
	// keys its heartbeat reports done AND keys already persisted in its
	// shard store (a resumed worker replays those at zero cost — a
	// thief would have to re-execute them) are both off the table.
	// Thief lease first, then the laggard shrink: a crash between the
	// writes leaves the stolen keys in two leases (safe, merged
	// freshest-wins), never in none.
	trySteal := func(thief int) (bool, error) {
		if cfg.StealMin < 0 {
			return false, nil
		}
		victim, best := -1, cfg.StealMin
		var victimRemaining []KeyRef
		for j, st := range states {
			if !st.running || j == thief {
				continue
			}
			hb, err := ReadHeartbeat(HeartbeatPath(LeasePath(coordDir, j+1)))
			if err != nil {
				continue // torn write: next tick
			}
			done := keySet(hb.Done)
			var remaining []KeyRef
			for _, k := range st.lease.Keys {
				if !done[k.Global()] {
					remaining = append(remaining, k)
				}
			}
			if len(remaining) <= best {
				continue // below threshold on heartbeat evidence alone
			}
			// Only now pay for reading the worker's shard store: a
			// resumed worker's persisted outcomes replay for free and
			// must not count as stealable backlog.
			if persisted := persistedKeys(ShardDir(cfg.StateDir, j+1)); len(persisted) > 0 {
				fresh := remaining[:0]
				for _, k := range remaining {
					if !persisted[k.Global()] {
						fresh = append(fresh, k)
					}
				}
				remaining = fresh
			}
			if len(remaining) > best {
				victim, best, victimRemaining = j, len(remaining), remaining
			}
		}
		if victim < 0 {
			return false, nil
		}
		stolen := victimRemaining[len(victimRemaining)-len(victimRemaining)/2:]
		if len(stolen) == 0 {
			// A single pending key halves to nothing (StealMin 0):
			// rewriting both leases unchanged and respawning the thief
			// would be pure churn, not a steal.
			return false, nil
		}
		stolenSet := keySet(stolen)
		_, span := obs.Start(ctx, obs.SpanSteal, fmt.Sprintf("worker-%d<-worker-%d", thief+1, victim+1))
		span.SetAttr("keys", strconv.Itoa(len(stolen)))

		// The thief keeps its old keys (all done — they replay from its
		// shard snapshot in the respawned run, and keeping them is what
		// preserves the every-key-is-leased invariant across crashes).
		tl := states[thief].lease
		newThief := &Lease{Worker: thief + 1, Generation: tl.Generation + 1, Keys: append(append([]KeyRef{}, tl.Keys...), stolen...)}
		if err := campaignstore.WriteJSON(LeasePath(coordDir, thief+1), newThief); err != nil {
			span.End("failed")
			return false, err
		}
		states[thief].lease = newThief

		vl := states[victim].lease
		kept := make([]KeyRef, 0, len(vl.Keys)-len(stolen))
		for _, k := range vl.Keys {
			if !stolenSet[k.Global()] {
				kept = append(kept, k)
			}
		}
		newVictim := &Lease{Worker: victim + 1, Generation: vl.Generation + 1, Keys: kept}
		if err := campaignstore.WriteJSON(LeasePath(coordDir, victim+1), newVictim); err != nil {
			span.End("failed")
			return false, err
		}
		states[victim].lease = newVictim

		res.Steals++
		mSteals.Inc()
		mStolenKeys.Add(uint64(len(stolen)))
		emit(Event{Kind: "steal", Worker: thief + 1, From: victim + 1, Keys: len(stolen)})
		span.End("ok")
		return true, nil
	}

	// stealAndRespawn gives one idle worker a chance to rob a laggard
	// and, on success, puts it back to work.
	stealAndRespawn := func(thief int) error {
		stole, err := trySteal(thief)
		if err != nil {
			return err
		}
		if stole {
			return spawn(thief)
		}
		return nil
	}

	for i := range states {
		if len(states[i].lease.Keys) == 0 {
			continue // nothing assigned yet; eligible as a thief
		}
		if err := spawn(i); err != nil {
			return abort(err)
		}
	}

	ticker := time.NewTicker(cfg.Poll)
	defer ticker.Stop()
	for running > 0 {
		select {
		case <-ctx.Done():
			return abort(ctx.Err())
		case m := <-exitCh:
			st := states[m.worker]
			exited(m.worker)
			if m.err != nil {
				emit(Event{Kind: "exit", Worker: m.worker + 1, Error: m.err.Error()})
				if ctx.Err() != nil {
					return abort(ctx.Err())
				}
				// Bounded respawn before aborting the merge: the retried
				// worker resumes on its unchanged lease, replaying the
				// outcomes its shard store already persisted — a retry
				// costs one spawn, never duplicated fresh simulation.
				if st.retries < cfg.WorkerRetries {
					st.retries++
					res.Retries++
					mRetries.Inc()
					emit(Event{Kind: "retry", Worker: m.worker + 1,
						Keys: len(st.lease.Keys), Attempt: st.retries, Error: m.err.Error()})
					if err := spawn(m.worker); err != nil {
						return abort(err)
					}
					continue
				}
				return abort(fmt.Errorf("coord: worker %d failed: %w", m.worker+1, m.err))
			}
			emit(Event{Kind: "exit", Worker: m.worker + 1})
			if err := stealAndRespawn(m.worker); err != nil {
				return abort(err)
			}
		case <-ticker.C:
			publishLag()
			// Idle workers that exited before earlier laggards built up
			// enough backlog get another look every tick.
			for i, st := range states {
				if st.running {
					continue
				}
				if err := stealAndRespawn(i); err != nil {
					return abort(err)
				}
			}
		}
	}

	// Merge the shard stores into the canonical store at the root. A
	// worker that never spawned has no directory; one that spawned but
	// saved none of this campaign's systems has no snapshot for them —
	// neither can contribute. The store itself decides what counts as a
	// snapshot (List), so the file-naming contract stays in
	// campaignstore.
	var dirs []string
	for i := 1; i <= cfg.Workers; i++ {
		dir := ShardDir(cfg.StateDir, i)
		store, err := campaignstore.Open(dir)
		if err != nil {
			continue
		}
		if systems, err := store.List(); err == nil && slices.ContainsFunc(systems, cfg.Locks.Covers) {
			dirs = append(dirs, dir)
		}
	}
	if len(dirs) == 0 {
		return nil, errors.New("coord: no worker produced a shard snapshot")
	}
	stats, err := shard.Merge(cfg.Locks, dirs)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	merged := 0
	for _, st := range stats {
		merged += st.Outcomes
	}
	emit(Event{Kind: "merge", Keys: merged})
	return res, nil
}

// endWorker ends a worker's span when it exits: failed, with the error,
// if the worker failed.
func endWorker(span *obs.Span, err error) {
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End("failed")
		return
	}
	span.End("ok")
}

// persistedKeys returns the global keys with outcomes recorded in a
// worker's shard store — work the worker can replay for free, which a
// steal must therefore never move. An unreadable or not-yet-existing
// store contributes nothing (the steal policy just sees more pending
// keys, which only costs a rare duplicate execution, already safe).
func persistedKeys(dir string) map[string]bool {
	store, err := campaignstore.Open(dir)
	if err != nil {
		return nil
	}
	idxs, err := store.LoadIndexAll()
	if err != nil {
		return nil
	}
	keys := make(map[string]bool)
	for _, idx := range idxs {
		for _, d := range idx.Docs {
			keys[shard.GlobalKey(idx.System, d.Key)] = true
		}
	}
	return keys
}

// planOrResume decides the initial leases: if the coordination
// directory holds a manifest matching this campaign's identity and a
// complete, workload-covering lease set, the persisted leases are
// resumed (an interrupted run's workers replay their finished outcomes
// and execute only the rest); on any mismatch the directory is
// re-planned from the deterministic hash partition.
func planOrResume(coordDir string, man *manifest, allKeys []KeyRef, owners []int) ([]*Lease, bool, error) {
	if leases, ok := resumable(coordDir, man, allKeys); ok {
		return leases, true, nil
	}
	// Fresh plan: wipe stale coordination state (old leases, heartbeats
	// and logs from a different campaign), then partition.
	entries, err := os.ReadDir(coordDir)
	if err != nil {
		return nil, false, fmt.Errorf("coord: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && (strings.HasSuffix(e.Name(), ".json") || strings.HasSuffix(e.Name(), ".log")) {
			// Not best-effort: a stale lease that survives the wipe would
			// be read back by the next resumable() check — or worse, by a
			// worker — as live coordination state for a different
			// campaign.
			if err := os.Remove(filepath.Join(coordDir, e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, false, fmt.Errorf("coord: wiping stale coordination state: %w", err)
			}
		}
	}
	leases := make([]*Lease, man.Workers)
	for i := range leases {
		leases[i] = &Lease{Worker: i + 1, Generation: 1}
	}
	for i, k := range allKeys {
		l := leases[owners[i]]
		l.Keys = append(l.Keys, k)
	}
	for i, l := range leases {
		if err := campaignstore.WriteJSON(LeasePath(coordDir, i+1), l); err != nil {
			return nil, false, err
		}
	}
	// The manifest lands last: its presence marks the lease set valid.
	if err := campaignstore.WriteJSON(filepath.Join(coordDir, "manifest.json"), man); err != nil {
		return nil, false, err
	}
	return leases, false, nil
}

// resumable validates persisted coordination state against this run's
// campaign identity: same manifest, every lease readable, and the lease
// union covering exactly the workload's keys (overlap from a steal
// interrupted between its two writes is allowed — duplicate execution
// is safe — but a missing or foreign key is not).
func resumable(coordDir string, man *manifest, allKeys []KeyRef) ([]*Lease, bool) {
	var prev manifest
	if err := readJSON(filepath.Join(coordDir, "manifest.json"), &prev); err != nil {
		return nil, false
	}
	if prev.Workers != man.Workers || prev.Schema != man.Schema || prev.Options != man.Options {
		return nil, false
	}
	if len(prev.Systems) != len(man.Systems) {
		return nil, false
	}
	for name, fp := range man.Systems {
		if prev.Systems[name] != fp {
			return nil, false
		}
	}
	leases := make([]*Lease, man.Workers)
	leased := make(map[string]bool)
	for i := range leases {
		l, err := ReadLease(LeasePath(coordDir, i+1))
		if err != nil || l.Worker != i+1 {
			return nil, false
		}
		leases[i] = l
		for _, k := range l.Keys {
			leased[k.Global()] = true
		}
	}
	want := keySet(allKeys)
	if len(leased) != len(want) {
		return nil, false
	}
	for k := range want {
		if !leased[k] {
			return nil, false
		}
	}
	return leases, true
}

// ExpandArgv renders a worker command template for one worker: every
// element of argv is copied with the placeholders {lease}, {state},
// and {worker} expanded from the spec. This is the whole contract
// between a spawn template (the spexinj -spawn flag, the daemon's
// spawn option) and the coordinator — an SSH preset is just a template
// whose first words are the ssh invocation, e.g.
//
//	ssh worker{worker}.cluster.example spexinj
//	    -lease {lease} -state {state} -all
//
// which expands for worker 2 to
//
//	ssh worker2.cluster.example spexinj
//	    -lease <state>/coord/worker2.lease.json -state <state>/shard2 -all
//
// The lease, heartbeat, and shard-store paths are plain files, so the
// only infrastructure an SSH fleet needs is the state directory on a
// shared filesystem.
func ExpandArgv(argv []string, spec WorkerSpec) []string {
	args := make([]string, len(argv))
	for i, a := range argv {
		a = strings.ReplaceAll(a, "{lease}", spec.LeasePath)
		a = strings.ReplaceAll(a, "{state}", spec.StateDir)
		a = strings.ReplaceAll(a, "{worker}", fmt.Sprint(spec.Worker))
		args[i] = a
	}
	return args
}

// ExecSpawner returns a SpawnFunc launching each worker as a local
// child process from a command template: every element of argv is
// expanded per worker (ExpandArgv), and the child's stdout/stderr
// stream to the worker's log file under the coordination directory.
// The default template (built by `spexinj -coordinate`) re-executes
// spexinj itself in lease mode; pointing the template at ssh or
// kubectl (the -spawn flag) distributes the same protocol across
// machines — the lease, heartbeat and shard stores just have to live
// on a shared filesystem.
func ExecSpawner(argv []string) SpawnFunc {
	return func(ctx context.Context, spec WorkerSpec) (Handle, error) {
		if len(argv) == 0 {
			return nil, errors.New("coord: empty worker command template")
		}
		args := ExpandArgv(argv, spec)
		// Deliberately not CommandContext: context cancellation must
		// reach the child as an interrupt (so it saves its snapshot),
		// never as a kill. The coordinator's Interrupt does that.
		//spexlint:ignore ctxflow cancellation is delivered as SIGINT via Handle.Interrupt, not SIGKILL
		cmd := exec.Command(args[0], args[1:]...)
		logf, err := os.OpenFile(spec.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("coord: %w", err)
		}
		cmd.Stdout, cmd.Stderr = logf, logf
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, fmt.Errorf("coord: %w", err)
		}
		return &execHandle{cmd: cmd, log: logf}, nil
	}
}

type execHandle struct {
	cmd *exec.Cmd
	log *os.File
}

func (h *execHandle) Wait() error {
	err := h.cmd.Wait()
	h.log.Close()
	return err
}

func (h *execHandle) Interrupt() {
	if h.cmd.Process != nil {
		_ = h.cmd.Process.Signal(os.Interrupt)
	}
}
