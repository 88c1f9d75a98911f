package shard

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/engine"
	"spex/internal/inject"
	"spex/internal/obs"
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
	// Ms are the misconfigurations to test (already restricted to the
	// shard when running under a Plan). The per-system report covers
	// exactly these.
	Ms []confgen.Misconf
	// Keys, if set, holds each misconfiguration's replay identity
	// (inject.CacheKey), index-aligned with Ms. BuildWorkloads fills it,
	// so a workload built once pays for its keys once; ReplayKeys
	// computes them when Keys does not match Ms in length.
	Keys []string
	// Canon, if set, holds the encodings a snapshot of this workload
	// carries (campaignstore.Canonical), built from Set and the full
	// campaign's Ms and Keys. BuildWorkloads fills it and Plan.Apply
	// keeps it, because its lookups are by replay key. A store-backed
	// run decodes its snapshot against it (which builds its encodings on
	// first use); without it the load takes the plain decode, and the
	// run always saves (Status.FullHeader).
	Canon *campaignstore.Canonical
	// Keep lists replay keys outside Ms that a store-backed run
	// (CampaignAll) must carry through its snapshot save instead of
	// pruning as stale. Plan.Apply sets it to the full campaign's keys
	// for every shard, so refreshing one shard against a merged (or
	// full) store never discards the other shards' outcomes.
	Keep map[string]bool
}

// BuildWorkloads turns inference results (index-aligned with systems)
// into the global scheduler's input: for each system it parses the
// template configuration, generates the misconfigurations violating
// every inferred constraint, computes their replay keys (Keys), attaches
// their canonical snapshot encodings (Canon, encoded on first use), then
// restricts the campaign to plan's shard (Plan.Apply; a zero plan keeps
// everything). The second return value is each system's pre-plan
// campaign size. Shared by cmd/spexinj, report and the daemon so the
// drivers cannot drift.
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
		keys := cacheKeys(ms)
		ws[i] = Workload{Sys: sys, Set: results[i].Set, Ms: ms, Keys: keys,
			Canon: campaignstore.NewCanonical(results[i].Set, ms, keys)}
	}
	return plan.Apply(ws), totals, nil
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
	// persisted, so a heartbeat must not count it as done.
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
	// outcome was replayed from the store, which never runs a task).
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	// Run is set on a system's completion event only (SystemDone reaches
	// SystemTotal): the finished system's report, store status and save
	// error. The goroutine that resolved the system's last outcome
	// assembles it and has it saved, or found unchanged, before
	// delivering that event, so a consumer can read the system back from
	// the store. Not part of the wire form.
	Run *SystemRun `json:"-"`
}

// Options tune one global run.
type Options struct {
	// Workers bounds the single global pool (0 = one per CPU).
	Workers int
	// Inject holds the campaign options shared by every workload.
	Inject inject.Options
	// OnProgress, if set, streams every completed outcome, replayed or
	// executed. CampaignAll serializes the calls with its own mutex, and
	// Done and SystemDone count them in delivery order. A system's
	// completion event comes after that system is finished and saved, or
	// found unchanged (Progress.Run); the save itself runs outside the
	// mutex.
	OnProgress func(Progress)
	// Gate, if set, is consulted immediately before a misconfiguration
	// executes (replays bypass it — a replay costs nothing and is
	// already recorded). A non-nil error abandons the task with that
	// error recorded on its outcome, exactly like a harness failure,
	// and the outcome is never saved. The coordinator's worker harness
	// (internal/coord) gates on lease ownership, which is how a
	// work-stealing rebalance stops the victim from executing keys that
	// were just reassigned.
	Gate func(system string, m confgen.Misconf) error
}

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

// CampaignAll is the one campaign path. Each workload is one pipeline:
// prepare, then its fresh misconfigurations, then finish. It never
// writes to ws, so concurrent campaigns may share one workload slice.
//
// Prepare loads the workload's stored outcomes and looks every
// misconfiguration up in them. The prepares run on a pool opts.Workers
// wide, and every prepare completes even when ctx is already cancelled,
// so a workload is never saved without the outcomes its snapshot
// offered. A replayed outcome is resolved on the spot and never enters
// the engine.
//
// The fresh misconfigurations of every workload then run through one
// engine worker pool in interleaved order (Interleave). Each workload
// finishes on the goroutine that resolved its last outcome: its prepare
// task when nothing was fresh, otherwise the worker that ran its last
// fresh misconfiguration. Finishing reassembles the report through
// inject.Assemble in input order — identical to a standalone
// inject.RunContext over the same workload, so going global changes
// utilization, never results — and saves the snapshot unless it is
// unchanged, outside any lock the other workers wait on. Only then is
// the progress event reporting that completion delivered. A small
// system is therefore on disk while larger ones still run. Runs come
// back index-aligned with ws.
//
// With a store, each workload runs a load → diff → retest-delta → save
// lifecycle: campaignstore.Store.Prepare loads the system's snapshot,
// Diffs the stored constraint set against Workload.Set and returns the
// recorded outcomes minus the delta-selected retests (replays cost
// nothing). The saved snapshot holds every finished outcome of Ms,
// stamped at save time, plus the stored outcomes of Workload.Keep keys
// outside Ms with their stored stamps. It is saved even after
// cancellation, so the next run resumes with exactly the unfinished
// misconfigurations. A workload whose save would write what its prepare
// loaded is not saved (Status.Unchanged): the snapshot loaded, its
// header and every record matched Workload.Canon, Prepare retested and
// pruned nothing, and nothing executed. Such a save would write the
// same set, options and outcomes; only SavedAt and the stamps would
// move, and no fingerprint, table or merge result depends on them,
// because an outcome is a function of its replay key. The store is
// addressed through the write capability a held campaignstore writer
// lock mints (Lock.Set), the only way to save, so a caller must have
// acquired the state directory's lock before it can even name this
// mode. A set scoped to other systems fails a workload's save loudly.
//
// Under a span on ctx (obs.Start), each workload opens a system span
// at its prepare and ends it after its save, with its replays counted
// in a replayed attribute, and each executed misconfiguration a misconf
// span, named by its replay key, around its gate and Runner.Test, which
// runs under that span's ctx.
//
// A nil set is the storeless run: every misconfiguration executes and
// nothing is saved. On cancellation every run is still returned —
// finished outcomes kept, unstarted ones marked Skipped — together with
// the context error.
func CampaignAll(ctx context.Context, locks *campaignstore.LockSet, ws []Workload, opts Options) ([]SystemRun, error) {
	runs := make([]SystemRun, len(ws))
	runners := make([]*inject.Runner, len(ws))
	results := make([][]engine.Result[inject.Outcome], len(ws))
	// keys[i][j] is ws[i].Ms[j]'s replay identity (inject.CacheKey):
	// the replay lookups, the progress events and the save all use it.
	keys := make([][]string, len(ws))
	// stored[i] and stamps[i] hold workload i's replayable outcomes and
	// their freshness stamps as its prepare loaded them (nil without a
	// snapshot); replayed[i][j] marks the outcomes resolved from them.
	// Only the workload's own prepare and finish touch them.
	stored := make([]map[string]inject.Outcome, len(ws))
	stamps := make([]map[string]time.Time, len(ws))
	replayed := make([][]bool, len(ws))
	// fresh[i] lists the indices into ws[i].Ms that must execute.
	fresh := make([][]int, len(ws))
	// spans[i] is workload i's system span, from its prepare through
	// its save, under the span ctx carries (nil without one).
	spans := make([]*obs.Span, len(ws))
	total := 0
	for i := range ws {
		runs[i].Sys = ws[i].Sys
		runners[i] = inject.NewRunner(ws[i].Sys, opts.Inject)
		results[i] = make([]engine.Result[inject.Outcome], len(ws[i].Ms))
		replayed[i] = make([]bool, len(ws[i].Ms))
		total += len(ws[i].Ms)
	}

	// finish completes workload i from its resolved results: it
	// assembles the report, saves the snapshot unless it is unchanged
	// and ends the system span, cancelled if ctx cut any of its
	// misconfigurations short.
	finish := func(i int) {
		w := &ws[i]
		rep := inject.Assemble(w.Sys.Name(), w.Ms, results[i], replayed[i])
		runs[i].Report = rep
		results[i] = nil // the report holds the outcomes now
		defer func() {
			switch {
			case runs[i].Err != nil:
				spans[i].End("failed")
			case ctx.Err() != nil && rep.Finished()+rep.Yielded < len(rep.Outcomes):
				spans[i].End("cancelled")
			default:
				spans[i].End("ok")
			}
		}()
		if locks == nil {
			return
		}
		if st := &runs[i].Status; st.Replayed && !st.FullHeader && st.FullDecodes == 0 &&
			st.Retests == 0 && st.Pruned == 0 && len(fresh[i]) == 0 {
			st.Unchanged = true
			stored[i], stamps[i] = nil, nil
			return
		}
		outcomes := make(map[string]inject.Outcome, max(len(w.Ms), len(stored[i])))
		for j, o := range rep.Outcomes {
			if o.Err == "" {
				outcomes[keys[i][j]] = o
			}
		}
		snap := campaignstore.New(w.Sys.Name(), w.Set, opts.Inject, outcomes)
		// Prepare pruned stored[i] to the keys of Ms and Workload.Keep,
		// and every stored key of Ms replayed, so the stored keys the
		// report lacks are exactly the Keep keys outside Ms. Those are
		// carried with their original stamps, so a shard refresh can
		// never make a peer's outcomes look newer than the peer's own
		// retests at merge time; everything this run executed or
		// re-validated is stamped now.
		for k, o := range stored[i] {
			if _, ok := outcomes[k]; !ok {
				outcomes[k] = o
				if t, ok := stamps[i][k]; ok {
					snap.Stamps[k] = t
				}
			}
		}
		stored[i], stamps[i] = nil, nil
		if err := locks.Save(snap); err != nil {
			runs[i].Err = err
			return
		}
		runs[i].Status.Saved = true
	}

	// mu serializes OnProgress and guards the counters below: resolved
	// counts each workload's outcomes as they are recorded, done and
	// sysDone count them as their events are delivered.
	var mu sync.Mutex
	done := 0
	sysDone := make([]int, len(ws))
	resolved := make([]int, len(ws))
	emit := func(i, j int, r engine.Result[inject.Outcome], run *SystemRun) {
		done++
		sysDone[i]++
		if opts.OnProgress == nil {
			return
		}
		opts.OnProgress(Progress{
			System:      ws[i].Sys.Name(),
			Key:         keys[i][j],
			Failed:      r.Err != nil,
			Yielded:     errors.Is(r.Err, inject.ErrYielded),
			SystemDone:  sysDone[i],
			SystemTotal: len(ws[i].Ms),
			Done:        done,
			Total:       total,
			Elapsed:     r.Elapsed,
			Run:         run,
		})
	}
	// resolve delivers the events of workload i's outcomes js, which the
	// caller has just recorded in results. If they are the workload's
	// last, the caller finishes it, outside mu, before the completion
	// event is delivered.
	resolve := func(i int, js []int) {
		mu.Lock()
		resolved[i] += len(js)
		n := len(js)
		last := resolved[i] == len(ws[i].Ms)
		if last {
			n--
		}
		for _, j := range js[:n] {
			emit(i, j, results[i][j], nil)
		}
		mu.Unlock()
		if last {
			j := js[n]
			r := results[i][j]
			finish(i)
			mu.Lock()
			emit(i, j, r, &runs[i])
			mu.Unlock()
		}
	}

	// prepare loads workload i's stored outcomes, resolves every replay,
	// and lists what must execute.
	prepare := func(i int) {
		w := &ws[i]
		_, spans[i] = obs.Start(ctx, obs.SpanSystem, w.Sys.Name())
		keys[i] = w.ReplayKeys()
		if locks != nil {
			runs[i].Status, stored[i], stamps[i] = locks.Store().Prepare(w.Sys.Name(), w.Set, w.Ms, keys[i], opts.Inject, w.Keep, w.Canon)
		}
		var js []int
		for j, key := range keys[i] {
			if out, ok := stored[i][key]; ok {
				replayed[i][j] = true
				results[i][j] = engine.Result[inject.Outcome]{Index: j, Value: out}
				js = append(js, j)
				continue
			}
			fresh[i] = append(fresh[i], j)
		}
		spans[i].SetAttr("replayed", strconv.Itoa(len(js)))
		switch {
		case len(w.Ms) == 0:
			finish(i) // nothing to run: save what the store carries
		case len(js) > 0:
			resolve(i, js)
		}
	}
	width := opts.Workers
	if width == 0 {
		width = engine.DefaultWorkers()
	}
	work := make(chan int, len(ws))
	for i := range ws {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for range max(1, min(width, len(ws))) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				prepare(i)
			}
		}()
	}
	wg.Wait()

	sizes := make([]int, len(ws))
	for i := range ws {
		sizes[i] = len(fresh[i])
	}
	tasks := Interleave(sizes)
	rs, cancelErr := engine.Run(ctx, len(tasks), opts.Workers, func(ctx context.Context, k int) (inject.Outcome, error) {
		t := tasks[k]
		i, j := t.Target, fresh[t.Target][t.Index]
		w := &ws[i]
		start := time.Now()
		mctx, span := spans[i].Start(ctx, obs.SpanMisconf, keys[i][j])
		var out inject.Outcome
		var err error
		if opts.Gate != nil {
			err = opts.Gate(w.Sys.Name(), w.Ms[j])
		}
		if err == nil {
			out, err = runners[i].Test(mctx, w.Ms[j])
		}
		span.End(taskStatus(err))
		results[i][j] = engine.Result[inject.Outcome]{Index: j, Value: out, Err: err, Elapsed: time.Since(start)}
		resolve(i, []int{j})
		return out, err
	})

	// Workloads that never completed — cancelled mid-run — record their
	// never-started tasks and finish now, saving what they have.
	for k, r := range rs {
		if r.Skipped {
			t := tasks[k]
			j := fresh[t.Target][t.Index]
			results[t.Target][j] = engine.Result[inject.Outcome]{Index: j, Err: r.Err, Skipped: true}
		}
	}
	for i := range runs {
		if runs[i].Report == nil {
			finish(i)
		}
	}
	if cancelErr != nil {
		return runs, fmt.Errorf("shard: %w", cancelErr)
	}
	return runs, nil
}

// taskStatus names how an executed misconfiguration ended, for its span.
func taskStatus(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, inject.ErrYielded):
		return "yielded"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	}
	return "failed"
}

// ReplayKeys returns Keys when it is index-aligned with Ms, and computes
// the keys otherwise.
func (w *Workload) ReplayKeys() []string {
	if len(w.Keys) == len(w.Ms) {
		return w.Keys
	}
	return cacheKeys(w.Ms)
}

// cacheKeys returns each misconfiguration's replay identity
// (inject.CacheKey), index-aligned with ms.
func cacheKeys(ms []confgen.Misconf) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = inject.CacheKey(m)
	}
	return keys
}
