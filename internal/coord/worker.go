package coord

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/inject"
	"spex/internal/shard"
)

// WorkerOptions tune one shard worker.
type WorkerOptions struct {
	// Workers bounds the engine pool inside this worker (0 = one per
	// CPU).
	Workers int
	// Inject holds the campaign options (must match the coordinator's,
	// or the merge will reject the shard).
	Inject inject.Options
	// Poll is the lease re-read interval (default 200ms). The gate also
	// consults the freshest loaded lease before every execution, so a
	// steal takes effect at the next task boundary after a poll.
	Poll time.Duration
	// OnProgress, if set, observes every scheduler progress event after
	// the worker's own heartbeat bookkeeping — the hook an in-process
	// spawner (the daemon's coordinate jobs) uses to feed the job's
	// trace and event stream while the heartbeat files keep feeding the
	// coordinator. Calls are serialized by the scheduler.
	OnProgress func(shard.Progress)
}

// WorkerResult is what one worker run accomplished.
type WorkerResult struct {
	// Lease is the assignment the worker started from.
	Lease *Lease
	// Runs are the per-system campaign results (store statuses
	// included), index-aligned with the systems that had leased keys.
	Runs []shard.SystemRun
	// Done counts outcomes recorded (executed or replayed).
	Done int
	// Yielded counts keys given up to a steal.
	Yielded int
}

// RunWorker executes one worker's lease over ws, the full campaign as
// shard.BuildWorkloads built it under the zero plan: it compiles the
// lease into an explicit key-set plan, restricts ws to it
// (shard.Plan.Apply), runs the owned misconfigurations through the
// store-backed global scheduler (shard.CampaignAll) against the
// worker's private shard store, streams per-outcome heartbeats, and
// watches the lease file for steals — keys that disappear from the
// lease are yielded (inject.ErrYielded) instead of executed. ws is
// never modified, so in-process workers share one slice.
//
// This is the child side of `spexinj -lease <file> -state <shardDir>`;
// in-process spawners (the daemon's coordinate jobs, tests) call it
// directly. The shard store is locked for the duration
// (campaignstore.Store.Lock).
// On cancellation the finished outcomes are saved (the campaignstore
// contract) and the context error is returned alongside the partial
// result, so a resumed run replays them at zero cost.
func RunWorker(ctx context.Context, leasePath, stateDir string, ws []shard.Workload, opts WorkerOptions) (res *WorkerResult, err error) {
	if opts.Poll <= 0 {
		opts.Poll = 200 * time.Millisecond
	}
	lease, err := ReadLease(leasePath)
	if err != nil {
		return nil, err
	}
	res = &WorkerResult{Lease: lease}
	hbPath := HeartbeatPath(leasePath)
	hb := &Heartbeat{Worker: lease.Worker, Generation: lease.Generation, PID: os.Getpid(), UpdatedAt: time.Now().UTC()}
	if len(lease.Keys) == 0 {
		return res, campaignstore.WriteJSON(hbPath, hb)
	}

	store, err := campaignstore.Open(stateDir)
	if err != nil {
		return nil, err
	}
	lock, err := store.Lock()
	if err != nil {
		return nil, err
	}
	defer func() {
		// An Unlock that fails after a takeover means another worker owns
		// this shard store now; surfacing it keeps the coordinator from
		// merging a store that a live writer is still appending to.
		if uerr := lock.Unlock(); uerr != nil && err == nil {
			res, err = nil, fmt.Errorf("coord: worker %d releasing shard lock: %w", lease.Worker, uerr)
		}
	}()

	// The live assignment: swapped whole by the lease watcher, consulted
	// by the gate before every execution.
	type assignment struct {
		gen  int
		keys map[string]bool
	}
	var owned atomic.Pointer[assignment]
	owned.Store(&assignment{gen: lease.Generation, keys: keySet(lease.Keys)})

	ws = shard.KeySetPlan(owned.Load().keys).Apply(ws)
	total := 0
	for _, w := range ws {
		total += len(w.Ms)
	}
	if want := len(owned.Load().keys); total != want {
		return nil, fmt.Errorf("coord: lease %s names %d keys but only %d are in the campaign workload (stale lease for a different inference?)",
			leasePath, want, total)
	}

	// Heartbeat state. The engine serializes OnProgress calls, but the
	// lease watcher appends yields concurrently, so writes go under mu —
	// which also keeps the atomic file rewrites ordered. Writes are
	// throttled to at least the poll interval (the coordinator reads no
	// faster) and back off as the done list grows — every flush rewrites
	// the cumulative list, so a fixed interval would make total
	// heartbeat I/O quadratic in the lease size; stretching the
	// interval with the list keeps it O(n log n). Landmark writes
	// (start, lease change, exit) always flush.
	var mu sync.Mutex
	var lastFlush time.Time
	flush := func(force bool) {
		now := time.Now()
		interval := opts.Poll * time.Duration(1+len(hb.Done)/512)
		if !force && now.Sub(lastFlush) < interval {
			return
		}
		lastFlush = now
		hb.UpdatedAt = now.UTC()
		_ = campaignstore.WriteJSON(hbPath, hb) // advisory: the snapshot carries the real outcomes
	}
	mu.Lock()
	flush(true)
	mu.Unlock()

	// Lease watcher: pick up steals until the campaign returns.
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	var watcherDone sync.WaitGroup
	watcherDone.Add(1)
	go func() {
		defer watcherDone.Done()
		ticker := time.NewTicker(opts.Poll)
		defer ticker.Stop()
		for {
			select {
			case <-watchCtx.Done():
				return
			case <-ticker.C:
			}
			l, err := ReadLease(leasePath)
			if err != nil || l.Generation <= owned.Load().gen {
				continue // unreadable mid-write or not newer: retry next tick
			}
			owned.Store(&assignment{gen: l.Generation, keys: keySet(l.Keys)})
			mu.Lock()
			hb.Generation = l.Generation
			flush(true)
			mu.Unlock()
		}
	}()

	gopts := shard.Options{
		Workers: opts.Workers,
		Inject:  opts.Inject,
		Gate: func(system, key string) error {
			if owned.Load().keys[shard.GlobalKey(system, key)] {
				return nil
			}
			mu.Lock()
			hb.Yielded = append(hb.Yielded, KeyRef{System: system, Key: key})
			flush(false)
			mu.Unlock()
			return inject.ErrYielded
		},
		OnProgress: func(p shard.Progress) {
			if !p.Failed { // yields and harness failures never persist
				mu.Lock()
				hb.Done = append(hb.Done, KeyRef{System: p.System, Key: p.Key})
				flush(false)
				mu.Unlock()
			}
			if opts.OnProgress != nil {
				opts.OnProgress(p)
			}
		},
	}

	runs, runErr := shard.CampaignAll(ctx, lock.Set(), ws, gopts)
	stopWatch()
	watcherDone.Wait()
	res.Runs = runs
	mu.Lock()
	res.Done, res.Yielded = len(hb.Done), len(hb.Yielded)
	flush(true)
	mu.Unlock()
	if runErr == nil {
		// A worker's snapshot is its only output: a per-system save
		// failure (non-fatal in the interactive driver, which at least
		// printed the report) must fail the worker, or the coordinator
		// would merge a silently incomplete store.
		for _, run := range runs {
			if run.Err != nil {
				return res, fmt.Errorf("coord: worker %d: %s snapshot not saved: %w",
					lease.Worker, run.Sys.Name(), run.Err)
			}
		}
	}
	return res, runErr
}
