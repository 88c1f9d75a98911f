package shard

import (
	"context"
	"errors"
	"fmt"
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
	// scheduler namespaces internally). A store-backed run replaces it
	// with the cache its snapshot seeds.
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
	// Run is set on a system's completion event only (SystemDone reaches
	// SystemTotal): the finished system's report, store status and save
	// error. CampaignAll delivers that event after the system's snapshot
	// save, so a consumer can read the system back from the store. Not
	// part of the wire form.
	Run *SystemRun `json:"-"`
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
	// serialized by the scheduler; a system's completion event comes
	// after that system is finished and saved (Progress.Run).
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

// SystemRun is one workload's result in a global campaign.
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

// CampaignAll is the one campaign path. Every workload's
// misconfigurations run through one engine worker pool in interleaved
// order (Interleave), and each workload finishes the moment its last
// misconfiguration completes: its report is reassembled through
// inject.Assemble in input order — identical to a standalone
// inject.RunContext over the same workload, so going global changes
// utilization, never results — and its snapshot is saved, all before
// the progress event reporting that completion is delivered. A small
// system is therefore on disk while larger ones still run. Runs come
// back index-aligned with ws.
//
// With a store, each workload runs a load → diff → retest-delta → save
// lifecycle: the system's snapshot is loaded, the stored constraint set
// Diffed against Workload.Set, the workload cache seeded with the
// recorded outcomes minus the delta-selected retests (replays cost
// nothing), and the updated snapshot saved — even after cancellation,
// so the next run resumes with exactly the unfinished
// misconfigurations. The store is addressed through held per-system
// writer locks: the campaignstore lock handles are the only capability
// for the saves, so a caller must have acquired each workload system's
// lock (or a whole-directory lock viewed through Lock.Set) before it
// can even name this mode. A restricted set missing a workload's system
// fails that system's save loudly.
//
// A nil set is the storeless run: it replays and records through each
// Workload.Cache that is set, and saves nothing. On cancellation every
// run is still returned — finished outcomes kept, unstarted ones marked
// Skipped — together with the context error.
func CampaignAll(ctx context.Context, locks *campaignstore.LockSet, ws []Workload, opts Options) ([]SystemRun, error) {
	runs := make([]SystemRun, len(ws))
	prevStamps := make([]map[string]time.Time, len(ws))
	runners := make([]*inject.Runner, len(ws))
	results := make([][]engine.Result[inject.Outcome], len(ws))
	// keys[i][j] is ws[i].Ms[j]'s replay identity (inject.CacheKey),
	// computed once for the cache lookups, the progress events and the
	// cache moves.
	keys := make([][]string, len(ws))
	sizes := make([]int, len(ws))
	total := 0
	for i := range ws {
		w := &ws[i]
		runs[i].Sys = w.Sys
		if locks != nil {
			w.Cache = inject.NewResultCache()
			runs[i].Status, prevStamps[i] = locks.Store().Prepare(w.Sys.Name(), w.Set, w.Ms, opts.Inject, w.Keep, w.Cache)
		}
		runners[i] = inject.NewRunner(w.Sys, opts.Inject)
		results[i] = make([]engine.Result[inject.Outcome], len(w.Ms))
		keys[i] = make([]string, len(w.Ms))
		for j, m := range w.Ms {
			keys[i][j] = inject.CacheKey(m)
		}
		sizes[i] = len(w.Ms)
		total += sizes[i]
	}
	tasks := Interleave(sizes)

	// One shared engine cache serves every workload, keys namespaced by
	// system, seeded from the per-workload caches up front.
	eopts := engine.Options[inject.Outcome]{Workers: opts.Workers}
	for _, w := range ws {
		if w.Cache == nil {
			continue
		}
		if eopts.Cache == nil {
			eopts.Cache = engine.NewCache[inject.Outcome]()
		}
		prefix := cachePrefix(w.Sys)
		for key, out := range w.Cache.Snapshot() {
			eopts.Cache.Put(prefix+key, out)
		}
	}
	if eopts.Cache != nil {
		eopts.KeyOf = func(i int) string {
			t := tasks[i]
			if ws[t.Target].Cache == nil {
				return "" // this workload runs uncached
			}
			return cachePrefix(ws[t.Target].Sys) + keys[t.Target][t.Index]
		}
	}

	// finish completes workload i. It moves the workload's entries from
	// the shared cache into its own, so Workload.Cache ends exactly as a
	// standalone cached run leaves it (replays plus fresh recordings) and
	// a finished system's outcomes are not held twice while the others
	// run; then it assembles the report and saves the snapshot.
	finished := make([]bool, len(ws))
	finish := func(i int) {
		finished[i] = true
		w := ws[i]
		if w.Cache != nil {
			prefix := cachePrefix(w.Sys)
			for _, key := range keys[i] {
				if out, ok := eopts.Cache.Get(prefix + key); ok {
					w.Cache.Put(key, out)
					eopts.Cache.Delete(prefix + key)
				}
			}
		}
		runs[i].Report = inject.Assemble(w.Sys.Name(), w.Ms, results[i], w.Cache)
		results[i] = nil // the report holds the outcomes now
		if locks == nil {
			return
		}
		snap := campaignstore.New(w.Sys.Name(), w.Set, opts.Inject, w.Cache.Snapshot())
		// Keys this run executed or re-validated (everything in Ms) are
		// genuinely fresh; keys merely carried through the save
		// (Workload.Keep) retain their original stamps, so a shard
		// refresh can never make a peer's outcomes look newer than the
		// peer's own retests at merge time.
		if len(w.Keep) > 0 && prevStamps[i] != nil {
			own := make(map[string]bool, len(keys[i]))
			for _, key := range keys[i] {
				own[key] = true
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
			return
		}
		runs[i].Status.Saved = true
	}

	done := 0
	sysDone := make([]int, len(ws))
	eopts.OnResult = func(r engine.Result[inject.Outcome]) {
		t := tasks[r.Index]
		r.Index = t.Index
		results[t.Target][t.Index] = r
		if r.Skipped {
			// Never-started task flushed by a cancellation: not work done —
			// tallied on the per-system Report.Skipped instead.
			return
		}
		done++
		sysDone[t.Target]++
		p := Progress{
			System:      ws[t.Target].Sys.Name(),
			Key:         keys[t.Target][t.Index],
			Failed:      r.Err != nil,
			Yielded:     errors.Is(r.Err, inject.ErrYielded),
			SystemDone:  sysDone[t.Target],
			SystemTotal: sizes[t.Target],
			Done:        done,
			Total:       total,
			Elapsed:     r.Elapsed,
		}
		if sysDone[t.Target] == sizes[t.Target] {
			finish(t.Target)
			p.Run = &runs[t.Target]
		}
		if opts.OnProgress != nil {
			opts.OnProgress(p)
		}
	}

	_, cancelErr := engine.Run(ctx, total, func(ctx context.Context, i int) (inject.Outcome, error) {
		t := tasks[i]
		if opts.Gate != nil {
			if err := opts.Gate(ws[t.Target].Sys.Name(), ws[t.Target].Ms[t.Index]); err != nil {
				return inject.Outcome{}, err
			}
		}
		return runners[t.Target].Test(ctx, ws[t.Target].Ms[t.Index])
	}, eopts)

	// Workloads that never completed — cancelled mid-run, or with
	// nothing to run — finish now, saving what they have.
	for i := range ws {
		if !finished[i] {
			finish(i)
		}
	}
	if cancelErr != nil {
		return runs, fmt.Errorf("shard: %w", cancelErr)
	}
	return runs, nil
}
