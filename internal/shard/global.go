package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/engine"
	"spex/internal/inject"
	"spex/internal/sim"
	"spex/internal/spex"
)

// Workload is one target system's share of a global campaign.
type Workload struct {
	// Sys is the target.
	Sys sim.System
	// Set is the inferred constraint set the misconfigurations were
	// generated from — the identity a persisted snapshot diffs against.
	Set *constraint.Set
	// Ms are the misconfigurations to test (already shard-filtered when
	// running under a Plan). The per-system report covers exactly these.
	Ms []confgen.Misconf
	// Cache, if set, replays recorded outcomes and records fresh ones —
	// per system, keyed by inject.CacheKey (no cross-system prefix; the
	// scheduler namespaces internally).
	Cache *inject.ResultCache
	// Keep lists cache keys outside Ms that a store-backed run
	// (CampaignAll) must carry through its snapshot save instead of
	// pruning as stale. A shard process sets it to the full campaign's
	// keys, so refreshing one shard against a merged (or full) store
	// never discards the other shards' outcomes.
	Keep map[string]bool
}

// BuildWorkloads turns inference results (index-aligned with systems)
// into the global scheduler's input: for each system it parses the
// template configuration, generates the misconfigurations violating
// every inferred constraint, and shard-filters them under plan (a zero
// plan keeps everything). Under an enabled plan each workload also
// vouches for the full campaign's keys (Keep), so a shard run against
// a store holding its peers' outcomes preserves them. The second
// return value is each system's pre-filter campaign size. Shared by
// cmd/spexinj, report and the daemon so the drivers cannot drift.
func BuildWorkloads(systems []sim.System, results []*spex.Result, plan Plan) ([]Workload, []int, error) {
	ws := make([]Workload, len(systems))
	totals := make([]int, len(systems))
	for i, sys := range systems {
		tmpl, err := conffile.Parse(sys.DefaultConfig(), sys.Syntax())
		if err != nil {
			return nil, nil, fmt.Errorf("shard: %s: %w", sys.Name(), err)
		}
		ms := confgen.NewRegistry().Generate(results[i].Set, tmpl)
		totals[i] = len(ms)
		ws[i] = Workload{Sys: sys, Set: results[i].Set, Ms: plan.Filter(sys.Name(), ms)}
		if plan.Enabled() {
			keep := make(map[string]bool, len(ms))
			for _, m := range ms {
				keep[inject.CacheKey(m)] = true
			}
			ws[i].Keep = keep
		}
	}
	return ws, totals, nil
}

// Task addresses one misconfiguration in a global workload.
type Task struct {
	// Target indexes the workload slice.
	Target int
	// Index indexes that workload's Ms.
	Index int
}

// Interleave flattens per-target workload sizes into the global
// dispatch order: round-robin across targets, the scheduler's fairness
// rule. The engine dispatches indices in order, so with round-robin the
// in-flight set spans as many targets as the pool is wide — no target's
// serialized boot phase (the per-target boot mutex) can back up every
// worker at once, and a small target draining early leaves the rest of
// the rotation, not an idle pool.
func Interleave(sizes []int) []Task {
	total := 0
	for _, n := range sizes {
		total += n
	}
	tasks := make([]Task, 0, total)
	for round := 0; len(tasks) < total; round++ {
		for t, n := range sizes {
			if round < n {
				tasks = append(tasks, Task{Target: t, Index: round})
			}
		}
	}
	return tasks
}

// Progress is one global-campaign progress event, emitted per completed
// outcome: the aggregate position plus the owning system's position —
// exactly what a single streaming status line needs — plus the
// outcome's identity, which the coordinator's worker heartbeats
// (internal/coord) key on.
// The JSON tags are the event's wire form on the daemon's SSE stream
// (internal/server), snake_case like the rest of the public API.
type Progress struct {
	// System is the completed outcome's target.
	System string `json:"system"`
	// Key is the completed outcome's replay identity (inject.CacheKey).
	Key string `json:"key,omitempty"`
	// Failed reports that the task errored (harness failure, gate
	// rejection, or cancellation mid-run): its outcome will not be
	// cached or persisted, so a heartbeat must not count it as done.
	Failed bool `json:"failed,omitempty"`
	// Yielded narrows Failed: the task was abandoned because its key was
	// reassigned to another worker by a work-stealing rebalance
	// (inject.ErrYielded). Progress consumers can render yields
	// distinctly — they are rebalance traffic, not errors.
	Yielded bool `json:"yielded,omitempty"`
	// SystemDone/SystemTotal count within the system.
	SystemDone  int `json:"system_done"`
	SystemTotal int `json:"system_total"`
	// Done/Total count across the whole global queue.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Elapsed is the task's wall-clock execution time (zero when the
	// outcome was replayed from the cache). Trace recorders use it to
	// reconstruct per-misconf spans from the event stream.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
}

// Options tune one global run.
type Options struct {
	// Workers bounds the single global pool (0 = one per CPU).
	Workers int
	// Inject holds the campaign options shared by every workload. The
	// scheduling fields (Workers, Progress, Cache) are ignored — the
	// global pool replaces them.
	Inject inject.Options
	// OnProgress, if set, streams every completed outcome. Calls are
	// serialized by the scheduler.
	OnProgress func(Progress)
	// Gate, if set, is consulted immediately before a misconfiguration
	// executes (cache replays bypass it — a replay costs nothing and is
	// already recorded). A non-nil error abandons the task with that
	// error recorded on its outcome, exactly like a harness failure,
	// and the outcome is never cached. The coordinator's worker harness
	// (internal/coord) gates on lease ownership, which is how a
	// work-stealing rebalance stops the victim from executing keys that
	// were just reassigned.
	Gate func(system string, m confgen.Misconf) error
}

// cachePrefix namespaces one workload's keys inside the shared engine
// cache. System names never contain NUL, so prefixes cannot collide.
func cachePrefix(sys sim.System) string { return sys.Name() + "\x00" }

// RunGlobal executes every workload's misconfigurations through one
// engine worker pool in interleaved order and reassembles per-workload
// reports, index-aligned with ws. Each report is identical to what a
// standalone inject.RunContext over the same workload would produce
// (both reassemble through inject.Assemble in input order), so going
// global changes wall-clock utilization, never results. On
// cancellation every report is still returned — finished outcomes kept,
// unstarted ones marked Skipped — together with the context error.
func RunGlobal(ctx context.Context, ws []Workload, opts Options) ([]*inject.Report, error) {
	runners := make([]*inject.Runner, len(ws))
	sizes := make([]int, len(ws))
	total := 0
	for i, w := range ws {
		runners[i] = inject.NewRunner(w.Sys, opts.Inject)
		sizes[i] = len(w.Ms)
		total += sizes[i]
	}
	tasks := Interleave(sizes)

	// One shared engine cache serves every workload, keys namespaced by
	// system. Seeded from the per-workload caches up front; written back
	// per workload after the run, so each Workload.Cache ends up exactly
	// as a standalone run would leave it (replays + fresh records).
	var global *engine.Cache[inject.Outcome]
	for _, w := range ws {
		if w.Cache != nil {
			global = engine.NewCache[inject.Outcome]()
			break
		}
	}
	if global != nil {
		for i, w := range ws {
			if w.Cache == nil {
				continue
			}
			prefix := cachePrefix(ws[i].Sys)
			for key, out := range w.Cache.Snapshot() {
				global.Put(prefix+key, out)
			}
		}
	}

	eopts := engine.Options[inject.Outcome]{Workers: opts.Workers}
	if global != nil {
		eopts.Cache = global
		eopts.KeyOf = func(i int) string {
			t := tasks[i]
			if ws[t.Target].Cache == nil {
				return "" // this workload runs uncached
			}
			return cachePrefix(ws[t.Target].Sys) + inject.CacheKey(ws[t.Target].Ms[t.Index])
		}
	}
	if opts.OnProgress != nil {
		done := 0
		sysDone := make([]int, len(ws))
		eopts.OnResult = func(r engine.Result[inject.Outcome]) {
			if r.Skipped {
				// Never-started task flushed by a cancellation: not work
				// done — tallied on the per-system Report.Skipped instead.
				return
			}
			t := tasks[r.Index]
			done++
			sysDone[t.Target]++
			opts.OnProgress(Progress{
				System:      ws[t.Target].Sys.Name(),
				Key:         inject.CacheKey(ws[t.Target].Ms[t.Index]),
				Failed:      r.Err != nil,
				Yielded:     errors.Is(r.Err, inject.ErrYielded),
				SystemDone:  sysDone[t.Target],
				SystemTotal: sizes[t.Target],
				Done:        done,
				Total:       total,
				Elapsed:     r.Elapsed,
			})
		}
	}

	results, cancelErr := engine.Run(ctx, total, func(ctx context.Context, i int) (inject.Outcome, error) {
		t := tasks[i]
		if opts.Gate != nil {
			if err := opts.Gate(ws[t.Target].Sys.Name(), ws[t.Target].Ms[t.Index]); err != nil {
				return inject.Outcome{}, err
			}
		}
		return runners[t.Target].Test(ctx, ws[t.Target].Ms[t.Index])
	}, eopts)

	// Write the shared cache back into the per-workload caches: each
	// ends with exactly its own namespace's entries (seeded replays plus
	// fresh recordings), the state a standalone cached run would leave.
	if global != nil {
		entries := global.Snapshot()
		for i, w := range ws {
			if w.Cache == nil {
				continue
			}
			prefix := cachePrefix(ws[i].Sys)
			own := make(map[string]inject.Outcome)
			for key, out := range entries {
				if strings.HasPrefix(key, prefix) {
					own[key[len(prefix):]] = out
				}
			}
			w.Cache.LoadSnapshot(own)
		}
	}

	// Route the flat results back per workload, restoring each task's
	// within-workload index, and reassemble through the same code path
	// as inject.RunContext.
	perTarget := make([][]engine.Result[inject.Outcome], len(ws))
	for i := range ws {
		perTarget[i] = make([]engine.Result[inject.Outcome], sizes[i])
	}
	for i, r := range results {
		t := tasks[i]
		r.Index = t.Index
		perTarget[t.Target][t.Index] = r
	}
	reps := make([]*inject.Report, len(ws))
	for i, w := range ws {
		reps[i] = inject.Assemble(w.Sys.Name(), w.Ms, perTarget[i], w.Cache)
	}
	if cancelErr != nil {
		return reps, fmt.Errorf("shard: %w", cancelErr)
	}
	return reps, nil
}

// SystemRun is one workload's result in a store-backed global campaign.
type SystemRun struct {
	// Sys is the workload's target.
	Sys sim.System
	// Report is the campaign report (never nil, even on cancellation).
	Report *inject.Report
	// Status describes how the persistent store was used (zero when
	// CampaignAll ran without a store).
	Status campaignstore.Status
	// Err records a non-fatal per-system store failure (the campaign
	// completed but its snapshot could not be saved). Cancellation is
	// returned from CampaignAll itself, not recorded here.
	Err error
}

// CampaignAll is the store-backed global campaign — the one campaign
// path: a load → diff → retest-delta → save lifecycle for every
// workload, with all workloads' execution interleaved on one pool. For
// each workload it loads the system's snapshot, Diffs the stored
// constraint set against Workload.Set, seeds the workload cache with
// the recorded outcomes, evicts the delta-selected retests, runs
// everything through RunGlobal (replays cost nothing), and saves the
// updated snapshot — even after cancellation, so the next run resumes
// with exactly the unfinished misconfigurations.
//
// The store is addressed through held per-system writer locks: the
// campaign ends in snapshot saves, and the campaignstore lock handles
// are the only capability for those, so a caller must have acquired
// each workload system's lock (or a whole-directory lock viewed
// through Lock.Set) before it can even name this function's persistent
// mode. A nil set runs the campaign unpersisted; a restricted set
// missing a workload's system fails that system's save loudly.
func CampaignAll(ctx context.Context, locks *campaignstore.LockSet, ws []Workload, opts Options) ([]SystemRun, error) {
	runs := make([]SystemRun, len(ws))
	for i := range ws {
		runs[i].Sys = ws[i].Sys
	}
	prevStamps := make([]map[string]time.Time, len(ws))
	if locks != nil {
		store := locks.Store()
		for i := range ws {
			w := &ws[i]
			cache := inject.NewResultCache()
			runs[i].Status, prevStamps[i] = store.Prepare(w.Sys.Name(), w.Set, w.Ms, opts.Inject, w.Keep, cache)
			w.Cache = cache
		}
	}

	reps, runErr := RunGlobal(ctx, ws, opts)
	for i := range ws {
		runs[i].Report = reps[i]
	}
	if locks != nil {
		for i := range ws {
			snap := campaignstore.New(ws[i].Sys.Name(), ws[i].Set, opts.Inject, ws[i].Cache.Snapshot())
			// Keys this run executed or re-validated (everything in Ms)
			// are genuinely fresh; keys merely carried through the save
			// (Workload.Keep) retain their original stamps, so a shard
			// refresh can never make a peer's outcomes look newer than
			// the peer's own retests at merge time.
			if len(ws[i].Keep) > 0 && prevStamps[i] != nil {
				own := make(map[string]bool, len(ws[i].Ms))
				for _, m := range ws[i].Ms {
					own[inject.CacheKey(m)] = true
				}
				for k := range snap.Outcomes {
					if !own[k] {
						if t, ok := prevStamps[i][k]; ok {
							snap.Stamps[k] = t
						}
					}
				}
			}
			if err := locks.Save(snap); err != nil {
				runs[i].Err = err
				continue
			}
			runs[i].Status.Saved = true
		}
	}
	return runs, runErr
}
