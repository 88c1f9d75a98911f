// Package spex is a Go reproduction of "Do Not Blame Users for
// Misconfigurations" (Xu et al., SOSP 2013).
//
// The repository implements the paper's complete system:
//
//   - SPEX, a static analysis that infers configuration constraints
//     (basic type, semantic type, value range, control dependency, value
//     relationship) from annotated source code (internal/spex and its
//     substrates: frontend, cfg, dataflow, mapping, annot, apispec).
//   - SPEX-INJ, a misconfiguration-injection harness that violates every
//     inferred constraint, boots the target on hermetic virtual substrates
//     (vfs, vnet, simlog, sim), runs the target's own functional tests,
//     and classifies the reaction (confgen, inject).
//   - The error-prone-design detectors: case-sensitivity and unit
//     inconsistency, silent overruling, unsafe parsing APIs, undocumented
//     constraints (designcheck).
//   - Seven simulated evaluation targets mirroring the paper's systems
//     (internal/targets/...), the 18-project mapping survey
//     (targets/minicorpus), and the historical-case study (casedb).
//   - Renderers that regenerate every table and figure of the paper's
//     evaluation next to the published numbers (report, cmd/spexeval).
//
// # Concurrent campaign engine
//
// Campaigns and inference runs are scheduled by internal/engine, a
// bounded worker pool with two properties the layers above rely on:
//
//   - Determinism. Tasks are indexed and results reassemble in input
//     order, so a parallel injection campaign (shard.CampaignAll at any
//     pool width) or a parallel seven-target evaluation
//     (report.AnalyzeAllContext, spex.InferAll) produces reports
//     identical to a sequential run.
//     testdata/golden pins every table and figure byte for byte, and
//     each system's outcome count and store fingerprint
//     (testdata/golden/stores.txt); report's TestGoldenOutput checks
//     each execution mode against it.
//   - Cancellation. Every layer threads a context.Context down to
//     sim.MonitorStartContext; Ctrl-C in the cmd drivers stops
//     dispatching immediately, abandons in-flight boots, and reports
//     the outcomes already measured.
//
// Incrementality is the campaign layer's alone. Recorded outcomes
// keyed by misconfiguration identity (inject.CacheKey:
// violated-constraint ID + rule + injected values) make inject.Diff's
// constraint delta a real incremental mode: campaignstore.Store.Prepare
// loads a persisted snapshot's outcomes minus the delta-selected
// retests, and shard.CampaignAll resolves every recorded outcome of an
// unchanged constraint from them before any task runs, so only the
// added/affected misconfigurations reach the engine (§3.1's incremental
// retesting). A replay costs no simulated time, and little real time
// either: each workload from shard.BuildWorkloads carries its canonical
// snapshot encodings (campaignstore.Canonical: the constraint set's
// JSON, and each misconfiguration's JSON), built once, on its first
// snapshot load, and Prepare compares a stored header and record with
// them instead of decoding the constraint set and the embedded
// misconfiguration; a header that decodes to the workload's own set
// skips the diff. Bytes that do not match take the full decode, with
// the same result.
//
// # Persistent campaign snapshots
//
// internal/campaignstore persists that incremental mode across process
// runs, completing the paper's "campaign cost is a one-time cost"
// argument: a snapshot holds the inferred constraint set (in
// constraint.Set's stable serialized form, sorted by constraint
// identity), the set's fingerprint, and every recorded outcome keyed by
// inject.CacheKey. Snapshots are saved atomically (temp file + rename)
// in a length-prefixed binary container (see "Binary snapshot format
// and the outcome index" below), one file per system under a state
// directory (the -state flag of cmd/spexinj and cmd/spexeval, or
// report.AnalyzeOptions.State).
//
// Each run loads the snapshot, Diffs a fresh inference against the
// stored set, re-executes only the delta-selected misconfigurations,
// and saves the updated snapshot. A run that changed nothing — its
// load matched the workload's encodings throughout, and it retested,
// pruned and executed nothing — writes nothing: the snapshot keeps its
// bytes and mtime (campaignstore.Status.Unchanged). Only SavedAt and
// the per-outcome stamps stay older than a save would have made them,
// and no fingerprint, table or merge depends on them, because an
// outcome is a function of its replay key. Loading is fail-safe by
// construction: the snapshot embeds a schema fingerprint covering the
// store layout
// version and every encoding the data depends on (env-action kinds,
// reaction values, constraint kinds), plus the identity of the
// outcome-affecting campaign options; a missing, corrupt, truncated,
// fingerprint-stale or options-mismatched snapshot is never replayed —
// the run falls back to a full campaign and rebuilds it. Cancelled runs
// persist only their finished outcomes (errored, cancelled and
// never-started ones are never saved, and a stored one is dropped on
// load), so a resumed campaign re-executes exactly the unfinished
// misconfigurations.
//
// The simulated targets model the real systems' package-global config
// variables, so each target serializes its boot phase under a package
// mutex and detaches the parsed configuration into the instance before
// the (fully parallel) functional-test phase. A Runner
// (inject.NewRunner) parses its target's template once, and each trial
// clones that parse before injecting its values. Campaign wall-clock
// cost is dominated by per-misconfiguration boots in the paper's setting;
// inject.Options.SimCostDelay optionally realizes simulated cost units
// as wall time so the scheduler's overlap is measurable
// (BenchmarkCampaignParallel).
//
// # Distributed campaign sharding
//
// internal/shard scales the campaign beyond one worker pool and beyond
// one process, in a plan → execute → merge lifecycle:
//
//   - Global cross-target scheduling (shard.CampaignAll, storeless
//     under a nil lock set). Each system is one pipeline: prepare,
//     then its fresh misconfigurations, then finish. The prepares load
//     each system's snapshot and resolve every replay, on a pool as
//     wide as the campaign's; a replay never becomes an engine task.
//     Instead of one engine.Run per system, every target's fresh
//     misconfigurations then flatten into a single task queue feeding
//     one pool. The fairness rule is round-robin interleaving
//     (shard.Interleave): consecutive tasks address different targets,
//     so the in-flight set spans as many targets as the pool is wide —
//     no single target's mutex-serialized boot phase backs up every
//     worker, and a small target draining early leaves the rest of the
//     rotation instead of idle workers (BenchmarkGlobalScheduler
//     measures the utilization gap). Each per-system report is
//     reassembled through inject.Assemble, the same code path a
//     standalone campaign uses, so going global changes utilization,
//     never results. A system is finished — its report assembled and
//     its snapshot saved — by the goroutine that resolved its last
//     outcome (its prepare when nothing was fresh, otherwise the
//     worker that ran its last fresh misconfiguration), outside any
//     lock the other workers wait on, and before the progress event
//     reporting that completion (shard.Progress.Run), so finished
//     systems are on disk while slower ones still run and an
//     incremental campaign's loads and saves overlap. This scheduler is the only
//     campaign path: it sits under `spexinj -all`, `spexinj -system X`
//     (the one-workload special case), `spexeval`, and the daemon.
//
//   - Plan: `spexinj -shard i/N -state dir` executes one deterministic
//     partition of the workload. shard.Plan hashes each
//     misconfiguration's replay identity (inject.CacheKey, salted with
//     the system name) with FNV-1a mod N, so every process computes
//     the same partition from the same inference with no coordinator,
//     each key belongs to exactly one shard, and a shard's -state
//     re-run replays its own outcomes incrementally.
//
//   - Merge: `spexmerge -out dir shard1 shard2 ...` (shard.Merge)
//     folds per-shard state directories into one canonical store. The
//     merge validates before it folds — all shards of a system must
//     carry this build's schema fingerprint, the same constraint-set
//     fingerprint, and the same outcome-affecting options identity
//     (OptionsID) — and resolves duplicate outcome keys freshest-wins
//     by each outcome's own stamp (when it was last executed or
//     re-validated, not when its snapshot was saved — a shard that
//     merely carried a peer's outcome through its save can never
//     shadow the peer's fresher retest; exactly-equal stamps tie-break
//     to the lexicographically greatest shard directory, so the merge
//     is a function of the shard set, not the argument order). The
//     merged store replays byte-identically
//     to an unsharded run's (campaignstore.Snapshot.Fingerprint is the
//     equivalence check: it covers everything replay-relevant and
//     nothing time-dependent).
//
// Example: split a campaign across two machines and fold it back.
//
//	machine1$ spexinj -all -shard 1/2 -state /tmp/shard1
//	machine2$ spexinj -all -shard 2/2 -state /tmp/shard2
//	$ spexmerge -out /var/lib/spex /tmp/shard1 /tmp/shard2
//	$ spexinj -all -state /var/lib/spex    # 100% replay, zero sim cost
//	$ spexeval -state /var/lib/spex        # tables byte-identical
//
// # Coordinated campaigns with work stealing
//
// The static i/N partition is coordinator-free but rigid: hash
// placement balances key counts, not runtimes, so a shard stuck behind
// slow misconfigurations (or a slow machine) sets the whole campaign's
// wall clock. internal/coord adds the scheduler the ROADMAP called
// for: `spexinj -coordinate N -state dir` runs a coordinator whose
// lifecycle is plan → lease → steal → merge.
//
//   - Plan. The coordinator takes the full workload from its caller —
//     the same deterministic inference every shard process runs, done
//     once by spexinj before it picks a mode, or once per daemon — and
//     assigns each misconfiguration its i/N hash owner (shard.Owner),
//     so a coordinated campaign starts from exactly the static
//     partition. The assignment is persisted as lease files,
//     <state>/coord/worker<i>.lease.json: owner, generation counter,
//     and the explicit key list in execution order (the workload's
//     round-robin interleave).
//
//   - Lease. N child spexinj processes launch in worker mode
//     (`spexinj -lease <file> -state <state>/shard<i>`), each
//     restricting its workload to its lease through an explicit
//     key-set plan (shard.Plan.Keys — the Plan extension beyond i/N
//     hashing — applied by Plan.Apply, the same code a -shard run's
//     BuildWorkloads uses), executing it on the global scheduler
//     against its private shard store, and writing heartbeat files
//     (worker<i>.heartbeat.json: lease generation, pid, and the keys
//     whose outcomes are recorded). Child processes are launched
//     through a pluggable command template (coord.ExecSpawner expands
//     {lease}, {state}, {worker}), so an SSH or k8s launcher is the
//     same protocol over a shared filesystem.
//
//   - Steal. When a worker drains while a laggard still has more than
//     K (-steal-min) keys pending — pending meaning keys that will
//     cost fresh simulation: neither heartbeat-done nor already
//     persisted in the laggard's store — the coordinator moves half of
//     the laggard's remaining keys (the deterministic suffix of its
//     lease order) to the idle worker and relaunches it. Lease writes
//     are ordered thief-first so a crash can leave a key in two leases
//     (harmless: duplicate execution is safe under the merge's
//     freshest-wins stamps) but never in none. The laggard's lease
//     watcher observes the shrink between outcomes and its scheduler
//     gate yields stolen keys (inject.ErrYielded, reported as
//     Report.Yielded — not harness failures) instead of executing
//     them. BenchmarkWorkStealing measures the payoff: under a skewed
//     SimCostDelay (one worker 20x slower), stealing cuts the
//     campaign's wall clock ~3x vs the static partition.
//
//   - Merge. When every worker drains, the coordinator folds the shard
//     stores into the canonical store at the state root (shard.Merge)
//     and prints fingerprints — byte-identical to an unsharded run's.
//     Only the campaign's own systems are merged: shard directories
//     keep earlier campaigns' snapshots, which must not overwrite the
//     root's newer ones.
//
// Interruption is first-class: SIGINT reaches the workers, each saves
// its finished outcomes, and the leases stay on disk. A rerun whose
// campaign identity matches (manifest.json: worker count, schema
// fingerprint, options identity, constraint-set fingerprints) resumes
// from the leases, replaying persisted outcomes and executing only the
// remainder — zero duplicated fresh sim cost; any mismatch re-plans
// from scratch. Every state directory is guarded by an exclusive
// writer lock (campaignstore.Store.Lock, an O_EXCL lock file with
// stale-lock takeover): coord.Run's caller holds the root's lock
// (spexinj -coordinate for the run, spexd for its lifetime), each
// worker locks its shard directory, and a stray concurrent `spexinj
// -state` run fails fast instead of silently racing snapshot saves.
//
// Worker processes that die on an error are respawned on their
// unchanged lease up to a bounded retry budget
// (coord.Config.WorkerRetries, `spexinj -worker-retries`, default 1)
// before the campaign aborts — a retried worker replays its persisted
// outcomes, so a retry costs one spawn, never duplicated simulation.
// The worker command template is caller-replaceable (`spexinj -spawn`,
// expanded per worker by coord.ExpandArgv): an SSH preset distributes
// workers across machines sharing the state directory.
//
// # Writer lock
//
// Each state directory has one writer: campaignstore.Store.Lock claims
// its .spex.lock file (atomically hard-linked, carrying pid and host,
// mtime-refreshed while held, with stale-lock takeover), and every
// other process that tries fails fast, naming the holder. The CLIs
// hold it for one run; spexd holds each namespace's lock for its
// lifetime. The held Lock mints the only write capability, a LockSet:
// Save and NewStreamWriter live on the set, so writing without the
// lock does not compile. Lock.Set() covers every system, which is what
// the plain and -shard CLI runs, coordinator workers and shard.Merge
// under spexmerge use; Lock.Set(systems...) covers exactly those, which
// is what a daemon job and spexinj -coordinate hand coord.Run, and a
// write outside that scope fails loudly — shard.Merge folds only the
// systems its set covers, so shard directories left by an earlier
// campaign never leak into the root.
//
// # Campaign service daemon
//
// cmd/spexd and internal/server turn the whole stack into a resident
// multi-tenant service. One daemon owns a root state directory and
// hosts namespaces under it — the default namespace is the root itself
// (bare /v1 URLs, the single-tenant layout), and every route repeats
// under /v1/ns/{name} for tenants at <root>/<name>/, each a full state
// directory with its own store, journal, queues and quotas, created on
// first job submission. The JSON HTTP API: POST /v1/jobs submits a
// campaign (named systems or all, pool width, optionally
// `coordinate: N`, N ≤ 64, to embed the work-stealing coordinator), GET
// /v1/jobs/{id} reports status, DELETE cancels through the engine's
// context plumbing (finished outcomes persist; the store resumes), and
// GET /v1/jobs/{id}/events streams the job's events over Server-Sent
// Events.
//
// Jobs are scheduled as a DAG over a reservation board: each job
// reserves exactly the systems it campaigns (all-or-nothing, under the
// scheduler's mutex) and writes through the namespace lock's set scoped
// to them, so jobs over disjoint systems run concurrently — up to
// Config.MaxConcurrentJobs per namespace — while jobs sharing a system
// serialize on that system, with stores byte-identical to a serial
// run. A spec's `needs: [jobID...]` adds explicit edges (a failed or
// cancelled dependency fails the dependent). Every job runs one
// pipeline on its one pool, infer → inject → eval: the workloads the
// daemon inferred once at start (server.New), shared read-only by every
// job, then one shard.CampaignAll over them (coord.Run over the same
// workloads for a coordinate job, whose in-process workers restrict
// them to their leases), then the outcome indexes — so no job infers
// and `workers` bounds every job. A plain job is [infer, inject];
// `stages: ["infer", "inject", "eval"]` names the stages to run and
// publishes each system's transitions as "stage" events. Stages are
// events, not barriers: a system's inject and eval finish at its
// completion event, which the campaign delivers after saving that
// system, so a fast system evaluates while a slow one is still
// injecting. Jobs are journaled durably under <ns>/jobs/: a restarted
// daemon lists finished jobs, adopts interrupted running jobs as
// failed (the snapshots hold every finished outcome — resubmit to
// resume), and re-queues jobs that never started; a journal document
// counts only under its own file name (<id>.json).
//
// Progress flows through one pipeline end to end: the global
// scheduler emits shard.Progress events to one OnProgress callback.
// The CLIs hand it to the renderer (internal/progressui: per-system
// TTY bars, throttled one-line aggregate in logs); coordinator
// workers fold it into their heartbeats; the daemon puts it,
// throttled, onto its event bus (internal/dash, below), which is the
// daemon's only fan-out: every event stream it serves, per-job ones
// included, is a filtered subscription to that bus.
//
// Reads are served lock-free from the store's outcome indexes, even
// while a job is writing: GET /v1/systems/{name}/outcomes pages through
// recorded outcomes (?limit/?offset, 1000 per page by default, 10000
// max, with whole-system tallies and a total count on every page), GET
// /v1/query answers cross-system misconfiguration queries (?param=,
// ?kind=, ?reaction=, ?min-systems=N, ?all=1), and GET /v1/tables/{n}
// renders the paper's evaluation tables from an index-backed replay
// over the same one inference (report.ReplayWorkloadsFromIndex + the
// structured report.Table encoding) —
// the text form is byte-identical to `spexeval -state <dir> -table n`
// over the same store, because the index docs carry exactly the fields
// the table builders consume and both render through
// report.RenderTableText. Every read endpoint carries an ETag derived
// from the snapshot fingerprint(s) it serves and answers If-None-Match
// with 304 Not Modified.
//
// # Binary snapshot format and the outcome index
//
// The snapshot container (internal/campaignstore's codec): after the
// magic "SPEXSNP1" and a uvarint-framed JSON header blob (schema
// fingerprint, system, save time, options identity, constraint set +
// fingerprint) come the outcome records — uvarint key length, key,
// varint freshness stamp (UnixNano), uvarint payload length, compact
// per-outcome JSON — in strictly ascending key order, then a zero
// terminator, a uvarint record count, and a CRC-32 trailer over
// everything before it. Record payloads stay JSON on purpose: they are
// exactly the bytes Snapshot.Fingerprint hashes, so a streaming writer
// folds the replay-equivalence fingerprint for free as records pass
// through. Every read reads the whole file and decodes its frames in
// place, and checks that the header names the file's system. The
// ascending key order is what makes spexmerge a k-way merge:
// internal/shard opens each shard's file through its store
// (Store.OpenSnapshot, the read Load makes), folds the minimum key's
// freshest copy (stamp, then lexicographically greatest shard
// directory) into a streaming writer, and never builds a shard's
// outcome map; it holds each shard file's bytes while it merges.
// Loading is fail-safe — a truncated file, a flipped bit (CRC), a
// corrupt length prefix, a stale schema fingerprint, or mismatched
// options falls back to a full campaign, and FuzzDecodeSnapshot holds
// the decoder to "error or round-trip, never panic". The container is
// the only snapshot format: a file in any other format is not a
// snapshot, so its system campaigns in full.
//
// Each snapshot has an outcome index (internal/outcomeindex): a
// compact per-outcome projection (the fields the HTTP API and the
// tables consume — no log dumps, no env actions) plus posting lists
// keyed by parameter, constraint kind and reaction and a list of the
// vulnerabilities, plus precomputed per-system aggregates (outcome
// count, reaction tallies and vulnerability count — the Table 3/5
// numbers). The index is built incrementally on every save by the same
// streaming writer that folds the fingerprint, and it is derived data
// that lives only in memory: campaignstore.Store holds each index under
// its snapshot file's name, size and mtime, and Store.LoadIndex
// validates them with one stat call. The store keeps the index its own
// save built, so the daemon's read path and a job's eval never read
// back what was just written; a foreign writer's rename changes the
// identity, and a mismatch falls back to a rebuild from the snapshot
// through Load, so an index never outlives the snapshot's fail-safe
// checks (a schema-stale snapshot is ErrStale for LoadIndex as for
// Load). No index file is written, so a fresh process's first read
// decodes each snapshot once: one pass of the decoder feeds each
// record's stored payload to the fingerprint and its outcome to the
// index builder, the two sinks the streaming writer feeds on a save.
// Each snapshot file, <system>.campaign.snap, names its system (a name
// that is empty or holds '/', '\', ':' or a NUL byte cannot be saved
// and reads as no snapshot), and every read checks that the header
// names the same one, so a cross-system read (/v1/tables, /v1/query, /v1/systems,
// /v1/status) costs one directory read and one stat per system when
// the store holds every index, and reads no file to name one when it
// does not. Cache invalidation needs no coupling to the job lifecycle:
// a save's atomic rename is the invalidation. FuzzReadIndexFile holds
// the index LoadIndex reads from any snapshot file to Load's verdict, to
// a Builder fed Load's outcomes, to queries that never panic and to
// aggregates equal to a direct tally of its docs.
// `spexeval -index -state <dir>` renders all tables and figures from
// the indexes — read-only: no writer lock, nothing written, each
// snapshot decoded once to build its index — byte-identical to a
// -state replay (report.ReplayFromIndex).
//
// # Checked invariants (spexlint)
//
// The contracts that hold this design together — writer locks acquired
// once per state directory and never on the serving or progress paths,
// contexts threaded instead of re-rooted, fingerprint inputs
// deterministic, the progress fan-out non-blocking — are enforced by a
// custom static-analysis suite, cmd/spexlint (`spexlint ./...`, tests
// included), gated in CI. internal/analysis documents the full invariant
// catalogue and the //spexlint:ignore waiver syntax; the writer-lock
// half of the contract is structural — Save and NewStreamWriter live
// only on the LockSet a held Lock mints, so holding the lock is a
// type-level precondition for writing, and only the acquisition
// discipline is left to the analyzer.
//
// # Observability (internal/obs)
//
// Every layer of the stack is instrumented against one stdlib-only
// metrics registry (internal/obs): the engine records task latency,
// queue depth and busy workers, the campaign store its save/load
// durations and snapshot sizes, the event bus its published and
// dropped events, the coordinator its spawns, steals and heartbeat
// lag, the sim monitor every boot by reaction kind, and the daemon
// its per-endpoint HTTP latency, ETag revalidation traffic, and job
// lifecycle. spexd serves the registry at GET /metrics in Prometheus
// text format (plus net/http/pprof behind -pprof), and the CLIs'
// -metrics-out <file> writes the same text at exit. Each spexd job
// also has a span tree whose spans ride the context (obs.Start): the
// daemon opens the job span, shard.CampaignAll a system span per
// workload (prepare through save, replays counted on it) and a misconf
// span per executed misconfiguration, and coord.Run a worker span per
// spawn and a steal span per rebalance. The tree is journaled beside
// the job document and served at GET /v1/jobs/{id}/trace as JSON or
// indented text. Metric families register exactly once, at package
// level, under package-level name constants; the spexlint obsmetric
// analyzer enforces that discipline statically.
//
// # Dashboard and event bus
//
// internal/dash carries every event the daemon emits on one bus: job
// lifecycle transitions, scheduler reservations and releases (with
// queue depth and running counts), per-system stage transitions,
// coordinator lifecycle events, and per-system campaign progress —
// throttled per (namespace, job, system) to the first sample, then at
// most one event per 200ms, plus every completion, so a hot campaign
// cannot flood subscribers. Events are typed and versioned (dash.Event
// stamps SchemaVersion, currently "v":1, plus a monotonic bus sequence
// number) and fan out with a drop-oldest discipline: each subscriber
// owns a bounded buffer, a slow consumer sheds its own oldest events
// (counted in spex_dash_dropped_total), and no consumer can stall a
// publisher — the hubsend spexlint analyzer rejects raw channel sends
// of dash.Event outside the package.
//
// The daemon serves the bus as SSE at GET /v1/events (every
// namespace), GET /v1/ns/{name}/events (one tenant's slice), and
// GET /v1/jobs/{id}/events (one job's slice). Every frame is a
// dash.Event: its event: field is the kind — a job's lifecycle frames
// are kind "job" — and its id: is the bus sequence, so a reconnecting
// client sends Last-Event-ID and replays only what it missed (a
// comment frame flags the resume as truncated when the bus no longer
// holds everything past the requested id, or the id came from a
// previous daemon run). The bus retains each job's own events up to
// 4096, compacted to the non-progress ones once the job ends, so a job
// stream replays the job from its queued frame however late a client
// attaches, and closes right after the terminal job frame; a job
// journaled by a previous daemon run streams one terminal frame built
// from its journal. Three
// consumers ship with the daemon: the embedded dashboard at GET /ui/
// (go:embed static assets, vanilla JS, zero external dependencies —
// live namespace and job tables, progress bars, /metrics gauges, and
// outcome drill-down over the ETag read path), the remote-attach TUI
// cmd/spexwatch (the internal/progressui renderer fed from a remote
// SSE stream, reconnecting with backoff and Last-Event-ID resume),
// and anything that can parse SSE — `curl -N host:port/v1/events`.
//
// See examples/quickstart/README.md for a tour of the CLIs and the
// daemon's API, testdata/golden for every table and figure as this
// reproduction prints them, and bench/README.md for the end-to-end
// benchmark.
package spex
