// Command spexinj runs the misconfiguration-injection campaign against a
// simulated target system (paper §3.1): it generates errors violating every
// inferred constraint, boots the target per misconfiguration, runs the
// target's own test suite, classifies reactions, and prints error reports
// for the exposed vulnerabilities.
//
// Campaigns run on the global cross-target scheduler (internal/shard):
// with -all the seven targets' misconfigurations flatten into one task
// queue feeding a single -workers wide pool, interleaved round-robin
// across targets so no target's serialized boot phase starves the pool
// and small targets draining early do not idle workers. A single
// -system campaign is the one-workload special case of the same
// scheduler. Ctrl-C cancels the campaign; outcomes already measured are
// reported and misconfigurations never started are counted as skipped
// (they do not inflate the progress stream).
//
// # Persistent incremental campaigns
//
// With -state <dir> the campaign is incremental across process runs,
// making the paper's "the campaign is a one-time cost" claim hold end to
// end. Each run loads the system's snapshot from the state directory,
// Diffs the freshly inferred constraint set against the snapshot's
// stored set, re-executes only the delta-selected misconfigurations
// (replaying everything else at zero simulated cost), and atomically
// saves the updated snapshot. A snapshot is a versioned binary
// container, SPEXSNP1 (internal/campaignstore); missing, corrupt, or
// schema-stale snapshots never replay — the run falls back to a full
// campaign and rebuilds the snapshot. A cancelled run saves its
// finished outcomes, so the next run resumes with exactly the
// unfinished misconfigurations. The state directory is guarded by an
// exclusive writer lock (a second concurrent run fails fast instead of
// silently racing snapshot saves; stale locks from crashed runs are
// taken over automatically).
//
// # Distributed campaign sharding
//
// With -shard i/N the process executes only its deterministic 1/N
// partition of the workload (stable hash of each misconfiguration's
// replay identity — every shard computes the same partition from the
// same inference, no coordinator needed) and saves its outcomes as
// per-shard snapshots under -state, which -shard therefore requires.
// Shards run as separate processes or machines; spexmerge folds their
// state directories into one canonical store whose replayed report is
// identical to an unsharded run's.
//
// # Coordinated campaigns with work stealing
//
// With -coordinate N the process becomes a shard coordinator
// (internal/coord): it holds the state root's writer lock for its
// systems until the merge is done, launches N local child spexinj
// workers, assigns each the same i/N hash partition a static -shard run
// would compute (persisted as lease files under <state>/coord/),
// watches per-worker heartbeat files, and rebalances by stealing — when
// a worker drains while another still has more than -steal-min pending
// misconfigurations, a deterministic suffix of the laggard's remaining
// lease moves to the idle worker, which is relaunched on it. The
// laggard observes its shrunken lease between outcomes and yields the
// stolen keys instead of executing them, so the slowest shard no
// longer sets the campaign's wall clock. When every worker drains, the
// coordinator merges the per-worker stores (<state>/shard<i>/) into
// the canonical store at the state root and prints the merge stats —
// the fingerprint matches an unsharded run's byte for byte. An
// interrupted coordinator resumes: leases and shard snapshots survive,
// and the rerun re-executes only what was never persisted.
//
// Worker processes are spexinj itself in lease mode (-lease <file>,
// normally set by the coordinator): they execute exactly their lease's
// keys, heartbeat progress, and watch for steals. Every mode — plain,
// -shard, -coordinate and -lease — infers the targets and builds the
// campaign's workloads once, before it starts. A worker process that
// dies on an error (a crashed child, a lost connection) is respawned
// on its unchanged lease up to -worker-retries times
// (default 1) before the campaign aborts; the respawned worker replays
// its persisted outcomes and re-executes only what never saved.
//
// # Spawning workers over SSH
//
// -spawn replaces the default self-exec worker template with an
// arbitrary command line (whitespace-split; {lease}, {state} and
// {worker} expand per worker — coord.ExpandArgv). The SSH preset runs
// each worker on its own machine; the only infrastructure it needs is
// the state directory on a shared filesystem:
//
//	spexinj -all -coordinate 4 -state /mnt/spex \
//	  -spawn "ssh worker{worker}.cluster.example spexinj -lease {lease} -state {state} -all"
//
// which launches worker 2 as
//
//	ssh worker2.cluster.example spexinj \
//	  -lease /mnt/spex/coord/worker2.lease.json -state /mnt/spex/shard2 -all
//
// (No coordinator flags are forwarded through a custom template —
// -no-optimizations, -sim-delay, -skew, -workers all have to be spelled
// in the template itself. Outcome-affecting ones matter most: a worker
// whose options differ from the coordinator's saves snapshots under a
// different options identity, and the final merge rejects the shards as
// mixed rather than silently blending them. No SSH runs in CI — the
// template expansion is unit-tested, the protocol is exercised by the
// local exec spawner.)
//
// # Progress rendering
//
// -progress feeds the campaign's progress callback straight into
// internal/progressui (the renderer spexwatch uses for a daemon's
// stream): on a terminal, one live bar per system plus an aggregate
// header, rewritten in place; in CI logs and redirects, the
// established throttled one-line aggregate.
//
// Usage:
//
//	spexinj -system proxyd [-reports] [-max 5] [-workers 8]
//	spexinj -system proxyd -state /var/lib/spex   # incremental across runs
//	spexinj -all                                  # one global pool, all targets
//	spexinj -all -shard 1/4 -state /tmp/shard1    # one shard of a 4-way split
//	spexinj -all -coordinate 4 -state /var/lib/spex  # 4 workers + work stealing
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/coord"
	"spex/internal/inject"
	"spex/internal/obs"
	"spex/internal/progressui"
	"spex/internal/shard"
	"spex/internal/sim"
	"spex/internal/spex"
	"spex/internal/targets"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		system     = flag.String("system", "", "target system (see spex -list)")
		all        = flag.Bool("all", false, "run the campaign on every target through one global pool")
		reports    = flag.Bool("reports", false, "print full error reports for vulnerabilities")
		max        = flag.Int("max", 10, "maximum error reports to print")
		noOpt      = flag.Bool("no-optimizations", false, "disable shortest-test-first and stop-on-first-failure")
		workers    = flag.Int("workers", 0, "width of the global worker pool (0 = one per CPU)")
		progress   = flag.Bool("progress", false, "stream one aggregate progress line (plus per-system counts) to stderr")
		state      = flag.String("state", "", "state directory for persistent incremental campaigns: replay saved outcomes, retest only the constraint delta, save the updated snapshot")
		shardFlag  = flag.String("shard", "", "execute one shard i/N of the workload (requires -state; merge shard directories with spexmerge)")
		coordinate = flag.Int("coordinate", 0, "coordinate N local shard workers with work-stealing rebalance (requires -state; merges into it when done)")
		stealMin   = flag.Int("steal-min", coord.DefaultStealMin, "coordinator: steal only from a laggard with more than this many pending misconfigurations")
		retries    = flag.Int("worker-retries", coord.DefaultWorkerRetries, "coordinator: respawn a worker that dies on an error this many times before aborting")
		spawnTmpl  = flag.String("spawn", "", "coordinator: worker command template ({lease}/{state}/{worker} placeholders; e.g. an ssh preset — see the doc comment); default re-executes spexinj locally")
		leaseFlag  = flag.String("lease", "", "worker mode: execute the key set leased in this file (requires -state; normally set by -coordinate)")
		simDelay   = flag.Duration("sim-delay", 0, "realize each simulated cost unit as this much wall time (scheduling knob for demos and skew experiments; 0 = full speed)")
		skew       = flag.Int("skew", 1, "coordinator: multiply -sim-delay by this factor for worker 1, modeling a slow machine (demo/CI knob)")
		metricsOut = flag.String("metrics-out", "", "on exit, dump the process metrics registry to this file in the Prometheus text format GET /metrics serves (engine, store, scheduler, and coordinator series)")
	)
	flag.Parse()
	defer func() {
		if *metricsOut == "" {
			return
		}
		if err := obs.Default().WriteFile(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "spexinj: metrics-out: %v\n", err)
		}
	}()

	var systems []sim.System
	if *all {
		systems = targets.All()
	} else if sys := targets.ByName(*system); sys != nil {
		systems = []sim.System{sys}
	} else {
		fmt.Fprintf(os.Stderr, "spexinj: unknown system %q\n", *system)
		return 2
	}

	opts := inject.DefaultOptions()
	if *noOpt {
		opts.StopOnFirstFailure = false
		opts.SortTests = false
	}
	opts.SimCostDelay = *simDelay

	modes := 0
	for _, on := range []bool{*shardFlag != "", *coordinate != 0, *leaseFlag != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "spexinj: -shard, -coordinate and -lease are mutually exclusive")
		return 2
	}
	if (*shardFlag != "" || *coordinate != 0 || *leaseFlag != "") && *state == "" {
		fmt.Fprintln(os.Stderr, "spexinj: -shard, -coordinate and -lease require -state (the campaign's snapshots live there)")
		return 2
	}

	var plan shard.Plan
	if *shardFlag != "" {
		var err error
		plan, err = shard.ParsePlan(*shardFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spexinj: %v\n", err)
			return 2
		}
	}

	if *coordinate != 0 && *coordinate < 2 {
		fmt.Fprintln(os.Stderr, "spexinj: -coordinate needs at least 2 workers (a single shard has nobody to steal from)")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Every mode runs on one inference: it fans out on the engine pool,
	// and the workloads it yields (restricted to the shard under a
	// -shard plan) feed the campaign, the coordinator's plan, or the
	// worker's lease.
	results, err := spex.InferAll(ctx, systems, *workers)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "spexinj: cancelled: %v\n", err)
			return 130
		}
		fmt.Fprintf(os.Stderr, "spexinj: %v\n", err)
		return 1
	}
	ws, totals, err := shard.BuildWorkloads(systems, results, plan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexinj: %v\n", err)
		return 1
	}

	if *coordinate != 0 {
		if *progress {
			fmt.Fprintln(os.Stderr, "spexinj: -progress is ignored under -coordinate (lifecycle events stream to stderr; per-worker output is in <state>/coord/worker<i>.log)")
		}
		return runCoordinator(ctx, ws, opts, coordArgs{
			state: *state, workers: *coordinate, pool: *workers,
			stealMin: *stealMin, retries: *retries, spawn: *spawnTmpl,
			all: *all, system: *system,
			noOpt: *noOpt, simDelay: *simDelay, skew: *skew,
			reports: *reports, max: *max,
		})
	}
	if *leaseFlag != "" {
		return runWorker(ctx, *leaseFlag, *state, ws, opts, *workers)
	}

	var lock *campaignstore.Lock
	var locks *campaignstore.LockSet
	if *state != "" {
		store, err := campaignstore.Open(*state)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spexinj: %v\n", err)
			return 1
		}
		// One writer per state directory: a concurrent run fails fast
		// here instead of silently losing the race of snapshot saves.
		// The handle is the snapshot-write capability the scheduler
		// saves through.
		lock, err = store.Lock()
		if err != nil {
			fmt.Fprintf(os.Stderr, "spexinj: %v\n", err)
			return 1
		}
		defer func() {
			if uerr := lock.Unlock(); uerr != nil {
				fmt.Fprintf(os.Stderr, "spexinj: %v\n", uerr)
			}
		}()
		// The write capability for every system, which the scheduler
		// saves through.
		locks = lock.Set()
	}

	// Every system's misconfigurations interleave on one global pool.
	gopts := shard.Options{Workers: *workers, Inject: opts}
	var finishProgress func()
	if *progress {
		gopts.OnProgress, finishProgress = progressui.Attach(os.Stderr, "spexinj")
	}
	runs, runErr := shard.CampaignAll(ctx, locks, ws, gopts)
	if finishProgress != nil {
		finishProgress()
	}
	cancelled := runErr != nil && errors.Is(runErr, context.Canceled)
	if runErr != nil && !cancelled {
		fmt.Fprintf(os.Stderr, "spexinj: %v\n", runErr)
	}
	if cancelled {
		fmt.Fprintf(os.Stderr, "spexinj: cancelled: %v\n", runErr)
	}

	for i, run := range runs {
		rep := run.Report
		if run.Err != nil {
			// Non-fatal store failure: the campaign data is intact.
			fmt.Fprintf(os.Stderr, "spexinj: %s: %v\n", run.Sys.Name(), run.Err)
		}
		counts := rep.CountByReaction()
		if plan.Enabled() {
			fmt.Printf("=== %s: %d misconfigurations injected (shard %s of %d) ===\n",
				run.Sys.Name(), len(ws[i].Ms), plan, totals[i])
		} else {
			fmt.Printf("=== %s: %d misconfigurations injected ===\n", run.Sys.Name(), len(ws[i].Ms))
		}
		order := []inject.Reaction{
			inject.ReactionCrash, inject.ReactionEarlyTerm, inject.ReactionFuncFailure,
			inject.ReactionSilentViolation, inject.ReactionSilentIgnorance,
			inject.ReactionGood, inject.ReactionTolerated,
		}
		for _, rr := range order {
			marker := " "
			if rr.Vulnerability() {
				marker = "!"
			}
			fmt.Printf("  %s %-20s %d\n", marker, rr.String(), counts[rr])
		}
		if errs := rep.Errors(); len(errs) > 0 {
			fmt.Printf("  ! %-20s %d (harness failures, excluded from tallies)\n", "untestable", len(errs))
		}
		if rep.Skipped > 0 {
			fmt.Printf("    %-20s %d (cancelled before start, excluded from tallies)\n", "skipped", rep.Skipped)
		}
		fmt.Printf("  vulnerabilities: %d at %d unique code locations; simulated cost %d units\n",
			len(rep.Vulnerabilities()), rep.UniqueLocations(), rep.TotalSimCost)
		if lock != nil {
			// Executed = outcomes that genuinely ran to completion this
			// run; errored and cancelled-in-flight rows re-execute next
			// run and are not counted.
			executed := rep.Finished() - rep.Replayed
			if run.Status.Fallback != "" {
				fmt.Printf("  state: full campaign — %s\n", run.Status.Fallback)
			} else {
				fmt.Printf("  state: incremental, %d delta retests\n", run.Status.Retests)
			}
			fmt.Printf("  state: replayed %d/%d, executed %d, fresh sim cost %d (saved %d)\n",
				rep.Replayed, len(ws[i].Ms), executed, rep.TotalSimCost, rep.ReplayedSimCost)
			switch {
			case run.Status.Saved:
				fmt.Printf("  state: snapshot saved to %s\n", run.Status.Path)
			case run.Status.Unchanged:
				fmt.Printf("  state: snapshot unchanged, left as it was at %s\n", run.Status.Path)
			}
		}
		fmt.Println()

		if *reports {
			printed := 0
			for _, o := range rep.Vulnerabilities() {
				if printed >= *max {
					fmt.Printf("  ... (%d more vulnerabilities; raise -max)\n", len(rep.Vulnerabilities())-printed)
					break
				}
				fmt.Println(inject.ErrorReport(o))
				printed++
			}
		}
	}
	if cancelled {
		return 130
	}
	return 0
}

// coordArgs carries the CLI knobs the coordinator mode needs.
type coordArgs struct {
	state    string
	workers  int
	pool     int
	stealMin int
	retries  int
	spawn    string
	all      bool
	system   string
	noOpt    bool
	simDelay time.Duration
	skew     int
	reports  bool
	max      int
}

// runCoordinator is `spexinj -coordinate N`: hold the state root's
// writer lock for ws's systems, launch N child spexinj workers in lease
// mode over the shared state directory, rebalance by stealing, merge,
// and print the canonical store's per-system stats.
func runCoordinator(ctx context.Context, ws []shard.Workload, opts inject.Options, a coordArgs) int {
	clog := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "coordinator")
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexinj: %v\n", err)
		return 1
	}
	root, err := campaignstore.Open(a.state)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexinj: %v\n", err)
		return 1
	}
	lock, err := root.Lock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexinj: %v\n", err)
		return 1
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Sys.Name()
	}
	argvFor := func(worker int) []string {
		argv := []string{exe, "-lease", "{lease}", "-state", "{state}", "-workers", fmt.Sprint(a.pool)}
		if a.all {
			argv = append(argv, "-all")
		} else {
			argv = append(argv, "-system", a.system)
		}
		if a.noOpt {
			argv = append(argv, "-no-optimizations")
		}
		if a.simDelay > 0 {
			delay := a.simDelay
			if worker == 1 && a.skew > 1 {
				delay *= time.Duration(a.skew) // the induced slow machine
			}
			argv = append(argv, "-sim-delay", delay.String())
		}
		return argv
	}
	tmpl := strings.Fields(a.spawn) // empty without -spawn
	cfg := coord.Config{
		StateDir:      a.state,
		Workers:       a.workers,
		Workloads:     ws,
		Inject:        opts,
		StealMin:      a.stealMin,
		WorkerRetries: a.retries,
		Locks:         lock.Set(names...),
		Spawn: func(ctx context.Context, spec coord.WorkerSpec) (coord.Handle, error) {
			if len(tmpl) > 0 {
				return coord.ExecSpawner(tmpl)(ctx, spec)
			}
			return coord.ExecSpawner(argvFor(spec.Worker))(ctx, spec)
		},
		OnEvent: func(e coord.Event) {
			// Structured lifecycle log on stderr; the stdout report stays
			// plain text. Each message keeps its key verb ("stole",
			// "launched", ...) so log greps keep working across the
			// slog migration.
			switch e.Kind {
			case "plan":
				clog.Info(fmt.Sprintf("planned %d misconfigurations across %d workers", e.Keys, a.workers),
					"keys", e.Keys, "workers", a.workers)
			case "resume":
				clog.Info(fmt.Sprintf("resuming %d misconfigurations from persisted leases", e.Keys),
					"keys", e.Keys)
			case "spawn":
				clog.Info(fmt.Sprintf("worker %d launched on %d keys", e.Worker, e.Keys),
					"worker", e.Worker, "keys", e.Keys)
			case "exit":
				if e.Error != "" {
					clog.Warn(fmt.Sprintf("worker %d exited: %s", e.Worker, e.Error),
						"worker", e.Worker, "err", e.Error)
				} else {
					clog.Info(fmt.Sprintf("worker %d drained", e.Worker), "worker", e.Worker)
				}
			case "retry":
				clog.Warn(fmt.Sprintf("respawning worker %d after failure (attempt %d): %s", e.Worker, e.Attempt, e.Error),
					"worker", e.Worker, "attempt", e.Attempt, "err", e.Error)
			case "steal":
				clog.Info(fmt.Sprintf("worker %d stole %d keys from laggard worker %d", e.Worker, e.Keys, e.From),
					"worker", e.Worker, "from", e.From, "keys", e.Keys)
			case "merge":
				clog.Info(fmt.Sprintf("merged %d outcomes into %s", e.Keys, a.state),
					"keys", e.Keys, "state", a.state)
			}
		},
	}
	res, err := coord.Run(ctx, cfg)
	// A failed release is a real error, not cleanup noise: if the lock
	// file could not be removed (and was not taken over), the next
	// campaign against this root refuses to start until the staleness
	// window expires.
	if uerr := lock.Unlock(); uerr != nil && err == nil {
		err = fmt.Errorf("releasing the state root lock: %w", uerr)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "spexinj: coordinator cancelled (leases and shard snapshots kept; rerun to resume): %v\n", err)
			return 130
		}
		fmt.Fprintf(os.Stderr, "spexinj: %v\n", err)
		return 1
	}
	fmt.Printf("=== coordinated campaign: %d workers, %d spawns, %d steals, %d retries ===\n",
		a.workers, res.Spawns, res.Steals, res.Retries)
	for _, st := range res.Stats {
		fmt.Printf("%-10s %d outcomes from %d shard(s)", st.System, st.Outcomes, st.Shards)
		if st.Duplicates > 0 {
			fmt.Printf(", %d duplicate keys resolved freshest-wins", st.Duplicates)
		}
		fmt.Printf(" -> %s\n", st.Path)
		fmt.Printf("%-10s store fingerprint %s\n", "", st.Fingerprint)
	}
	if a.reports {
		if err := printMergedReports(a.state, a.max); err != nil {
			fmt.Fprintf(os.Stderr, "spexinj: %v\n", err)
			return 1
		}
	}
	return 0
}

// printMergedReports renders vulnerability error reports from the
// coordinated campaign's merged store — the -reports flag's meaning
// under -coordinate, where no single process held the outcomes in
// memory. Like the plain driver, -max caps reports per system.
func printMergedReports(stateDir string, max int) error {
	store, err := campaignstore.Open(stateDir)
	if err != nil {
		return err
	}
	systems, err := store.List()
	if err != nil {
		return err
	}
	for _, system := range systems {
		snap, err := store.Load(system)
		if err != nil {
			return err
		}
		keys := make([]string, 0, len(snap.Outcomes))
		for k := range snap.Outcomes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var vulns []inject.Outcome
		for _, k := range keys {
			o := snap.Outcomes[k]
			if o.Reaction.Vulnerability() && o.Err == "" {
				vulns = append(vulns, o)
			}
		}
		for i, o := range vulns {
			if i >= max {
				fmt.Printf("  ... (%d more vulnerabilities in %s; raise -max)\n", len(vulns)-i, snap.System)
				break
			}
			fmt.Println(inject.ErrorReport(o))
		}
	}
	return nil
}

// runWorker is `spexinj -lease <file>`: the coordinator's child
// process, executing exactly the leased key set against its private
// shard store and heartbeating progress.
func runWorker(ctx context.Context, leasePath, stateDir string, ws []shard.Workload, opts inject.Options, pool int) int {
	res, err := coord.RunWorker(ctx, leasePath, stateDir, ws, coord.WorkerOptions{
		Workers: pool, Inject: opts,
	})
	cancelled := err != nil && errors.Is(err, context.Canceled)
	if err != nil && !cancelled {
		fmt.Fprintf(os.Stderr, "spexinj: worker: %v\n", err)
		if res == nil {
			return 1
		}
	}
	saveFailed := false
	if res != nil {
		fmt.Printf("worker %d: lease generation %d, %d done, %d yielded to steals\n",
			res.Lease.Worker, res.Lease.Generation, res.Done, res.Yielded)
		for _, run := range res.Runs {
			if run.Err != nil {
				// In worker mode the snapshot IS the output: a save
				// failure means this partition's outcomes would vanish
				// from the coordinator's merge, so it is fatal here
				// even though the plain driver treats it as a warning.
				saveFailed = true
				fmt.Fprintf(os.Stderr, "spexinj: worker: %s: %v\n", run.Sys.Name(), run.Err)
			}
			rep := run.Report
			fmt.Printf("  %-10s replayed %d, executed %d, yielded %d, fresh sim cost %d\n",
				run.Sys.Name(), rep.Replayed, rep.Finished()-rep.Replayed, rep.Yielded, rep.TotalSimCost)
		}
	}
	if cancelled {
		fmt.Fprintf(os.Stderr, "spexinj: worker cancelled (finished outcomes saved): %v\n", err)
		return 130
	}
	if err != nil || saveFailed {
		return 1
	}
	return 0
}
