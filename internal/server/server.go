// Package server is spexd's engine room: a resident, multi-tenant
// campaign service that owns a root state directory, hosts any number
// of namespaces under it (one campaign store each), schedules jobs
// concurrently over disjoint systems, and serves results and
// live progress over a JSON HTTP API:
//
//	POST   /v1/jobs                  submit a campaign (systems or all,
//	                                 workers, optional coordinate: N
//	                                 with N in 2..64,
//	                                 needs: [jobID...], stages: [...])
//	GET    /v1/jobs                  list jobs (including journaled ones
//	                                 from previous daemon runs)
//	GET    /v1/jobs/{id}             job status
//	DELETE /v1/jobs/{id}             cancel (context plumbing: finished
//	                                 outcomes persist, the store resumes)
//	GET    /v1/jobs/{id}/events      the job's slice of the event bus
//	                                 (Server-Sent Events; ends with the
//	                                 job's terminal frame)
//	GET    /v1/jobs/{id}/trace       the job's span tree (JSON, or
//	                                 ?format=text): job → system →
//	                                 misconf, each span opened by the
//	                                 code doing the work. A system span
//	                                 covers its prepare through its
//	                                 save, counts its replays
//	                                 (replayed=N; only executed
//	                                 misconfigurations get misconf
//	                                 spans) and ends with that system's
//	                                 own status; a coordinate job's
//	                                 system spans sit under worker
//	                                 spans, one per spawn, beside its
//	                                 steal spans. A span keeps 256
//	                                 children and counts the rest as
//	                                 dropped=N. Journaled beside the
//	                                 job document before its terminal
//	                                 frame
//	GET    /v1/systems               systems with snapshots in the store
//	GET    /v1/systems/{name}/outcomes   one system's recorded outcomes
//	                                 (?limit/?offset paging, 1000 per
//	                                 page by default, 10000 max);
//	                                 saved_at is when the snapshot last
//	                                 changed: a job that changes nothing
//	                                 leaves it as it was
//	GET    /v1/tables/{n}            evaluation table n (json or text —
//	                                 text is byte-identical to spexeval)
//	GET    /v1/query                 cross-system misconfiguration query
//	                                 (?param=, ?kind=, ?reaction=,
//	                                 ?min-systems=N, ?all=1)
//	GET    /v1/status                daemon status
//	GET    /v1/ns                    list namespaces
//	GET    /v1/events                daemon-wide event bus (SSE): job
//	                                 lifecycle, scheduler reservations,
//	                                 queue depth, stage transitions, and
//	                                 throttled progress across EVERY
//	                                 namespace (internal/dash)
//	GET    /ui/                      embedded live dashboard (go:embed,
//	                                 no external dependency)
//	*      /v1/ns/{ns}/...           any route above, scoped to a
//	                                 namespace (POST creates it;
//	                                 /v1/ns/{ns}/events filters the bus
//	                                 to that namespace)
//
// Every /v1 route above addresses the default namespace — the root
// state directory itself, so a single-tenant daemon keeps today's URLs
// and on-disk layout. A namespaced route addresses <root>/<namespace>/,
// a full state directory of its own: snapshots, job journal, quotas. POST /v1/ns/{ns}/jobs creates the namespace on
// first use; reads on an unknown namespace 404.
//
// Jobs are scheduled by a DAG scheduler over an in-memory reservation
// board: a job reserves exactly the systems it campaigns, so two jobs
// over disjoint system sets run concurrently while jobs sharing a
// system serialize per system, not per daemon.
// needs: [jobID...] adds explicit edges — a job waits for its
// dependencies to finish (a failed or cancelled dependency fails the
// job). Every job is one pipeline on one pool `workers` wide: infer →
// inject (one shard.CampaignAll, or coord.Run for a coordinate job) →
// eval. stages: [infer, inject, eval] names the stages to run and
// streams each system's transitions as "stage" events; a system's
// inject and eval finish at its completion event, after its snapshot
// is saved or found unchanged, so a fast system evaluates while a slow
// one still injects.
// Per-namespace quotas bound
// concurrency (Config.MaxConcurrentJobs) and queue depth
// (Config.MaxQueuedJobs). Every job is journaled durably under
// <ns>/jobs/, so a restarted daemon still lists finished jobs — and
// re-queues jobs that never started, after checking their specs again
// as it did at submit (validateSpec).
//
// Every event the daemon emits goes onto one bus (internal/dash), and
// every stream is a filtered subscription to it: GET /v1/events takes
// all of it, /v1/ns/{ns}/events one namespace, /v1/jobs/{id}/events
// one job. Frames are dash.Event (schema "v":1) with the bus sequence
// as their SSE id:, so Last-Event-ID resumes any of them. A job's
// lifecycle frames have kind "job"; its campaign progress is throttled
// like everywhere else on the bus: the first sample per system, then
// at most one per 200ms per system, plus every completion. The bus
// retains each job's events, so a late subscriber replays the job from
// its queued frame; a job stream closes right after the terminal job
// frame, and one for a job journaled by a previous daemon run sends
// just that frame, built from the journal.
//
// The daemon holds each namespace's writer lock (campaignstore
// Store.Lock, the one .spex.lock file) for its lifetime, so every
// other process stays excluded; within the daemon the board keeps jobs
// apart, and each job writes through the namespace lock's set scoped to
// its reserved systems (Lock.Set), so a save outside them fails loudly.
//
// The read path parses no snapshot per request: every read endpoint is
// served from the namespace store's outcome indexes
// (campaignstore.Store.LoadIndex, internal/outcomeindex). The store
// keeps each system's index in memory and revalidates it with one stat
// call per request against the snapshot file's size and mtime. Its own
// saves fill that cache — a job's save keeps the index it built while
// writing — and a foreign writer's atomic rename changes the identity,
// so invalidation needs no coupling to the job lifecycle; a snapshot
// the store holds no index for (after a restart, or a foreign save) is
// decoded once, on the first read, in one pass that builds the index
// and its fingerprint as a save does. Each snapshot file,
// <system>.campaign.snap, names its system, so a cross-system read
// lists the directory once and stats each file, and a name that is
// empty or holds '/', '\' or ':' names no snapshot (404). Reads need
// no lock at all, even while a job is writing. Every read
// endpoint carries an ETag derived from the snapshot fingerprint(s) it
// serves (the replay-equivalence hash, not the bytes) and honors
// If-None-Match with 304 Not Modified.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/coord"
	"spex/internal/dash"
	"spex/internal/inject"
	"spex/internal/obs"
	"spex/internal/outcomeindex"
	"spex/internal/report"
	"spex/internal/shard"
)

// Config tunes one daemon.
type Config struct {
	// StateDir is the root state directory the daemon takes ownership
	// of (required). It is the default namespace's store; named
	// namespaces live in subdirectories.
	StateDir string
	// Workers is the default campaign pool width for jobs that do not
	// set their own (0 = one per CPU).
	Workers int
	// SpawnArgv, when set, launches coordinate-job workers as external
	// processes from this command template ({lease}, {state}, {worker}
	// placeholders — see coord.ExpandArgv; an SSH preset distributes
	// workers across machines). Empty runs workers in-process, which
	// needs no spexinj binary and still exercises the full
	// plan → lease → steal → merge protocol.
	//
	// External workers report progress through their heartbeat files
	// only: a coordinate job's event stream then carries the coordinator
	// lifecycle (spawn, steal, retry, merge) but no "progress" events —
	// those require the in-process default, whose workers report to the
	// job's progress callback directly. The template must also set
	// any outcome-affecting worker flags itself (e.g.
	// -no-optimizations); a worker whose options differ from the
	// daemon's is rejected at merge time.
	SpawnArgv []string
	// Logger, if set, receives the daemon's structured log records
	// (job lifecycle, journal failures) with job/state attributes.
	// Nil discards them.
	Logger *slog.Logger
	// KeepaliveInterval is the idle interval between SSE keepalive
	// comment frames (0 = 15s). Comment frames keep intermediaries
	// from idling out a quiet event stream; clients ignore them.
	KeepaliveInterval time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/. Opt-in: the
	// profiling surface is for operators, not part of the public API.
	Pprof bool
	// MaxConcurrentJobs caps how many jobs may run at once within one
	// namespace (0 = 4). Jobs over disjoint system sets fill the cap;
	// jobs sharing a system serialize on its lock regardless.
	MaxConcurrentJobs int
	// MaxQueuedJobs caps how many submitted jobs may wait in one
	// namespace's queue (0 = 256). A full queue answers 503.
	MaxQueuedJobs int
}

const (
	// DefaultNamespace is the namespace the un-prefixed /v1 routes
	// address: the root state directory itself.
	DefaultNamespace = "default"
	// defaultKeepalive is the SSE keepalive interval when the config
	// does not set one.
	defaultKeepalive = 15 * time.Second
	// defaultMaxConcurrent / defaultMaxQueued back the zero values of
	// the per-namespace quota knobs.
	defaultMaxConcurrent = 4
	defaultMaxQueued     = 256
)

// namespace is one tenant: a campaign store with its own writer lock
// (held for the daemon's lifetime), job table, queue, journal, and
// tables cache.
type namespace struct {
	name  string
	dir   string
	store *campaignstore.Store
	lock  *campaignstore.Lock

	// Scheduling state, guarded by Server.mu: the job table and
	// submission order, the pending queue, and the reservation board —
	// busy maps a system name to the running job that reserved it, so
	// the dispatcher reserves all-or-nothing without hold-and-wait.
	jobs      map[string]*job
	order     []string
	seq       int
	pending   []*job
	running   int
	exclusive bool // a coordinate job owns the whole namespace
	busy      map[string]string

	// tablesMu guards tablesCache, the memoized read-only analysis
	// behind /v1/tables, keyed by the combined store fingerprint
	// (tablesKey) so it survives exactly as long as every underlying
	// snapshot's replay content does; holding the mutex across the
	// compute single-flights concurrent table requests.
	tablesMu    sync.Mutex
	tablesKey   string
	tablesCache []*report.SystemResult
}

// Server is the daemon. Create with New, serve with Handler (any
// http.Server) or Serve, stop with Close.
type Server struct {
	cfg    Config
	logger *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc

	// bus is the daemon-wide dashboard event bus (internal/dash):
	// every lifecycle site publishes into it, and GET /v1/events, the
	// /ui/ dashboard, and remote spexwatch clients subscribe.
	bus *dash.Bus

	// derived is the one inference every job and table rebuild reads.
	derived *derivation

	mu         sync.Mutex
	namespaces map[string]*namespace
	nsOrder    []string
	closed     bool

	kick      chan struct{}
	schedDone chan struct{}
	jobsWG    sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// nsNameRE bounds namespace names: a path-safe lowercase slug.
var nsNameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]{0,63}$`)

// validateNamespaceName rejects names that cannot be a namespace:
// malformed slugs, and names that would collide with the files the
// root state directory already owns (the journal dir, coordinator
// state, shard worker dirs, route segments).
func validateNamespaceName(name string) error {
	if !nsNameRE.MatchString(name) {
		return fmt.Errorf("bad namespace %q (want lowercase [a-z0-9][a-z0-9_-]{0,63})", name)
	}
	switch name {
	case DefaultNamespace, jobsDirName, coord.CoordDirName, "v1", "ns", "metrics", "debug":
		return fmt.Errorf("namespace %q is reserved", name)
	}
	if rest, ok := strings.CutPrefix(name, "shard"); ok && rest != "" {
		if _, err := strconv.Atoi(rest); err == nil {
			return fmt.Errorf("namespace %q is reserved (shard worker directory)", name)
		}
	}
	return nil
}

// New infers the seven targets once for the daemon's lifetime, opens
// the root state directory as the default namespace (taking its writer
// lock), discovers previously-created namespaces under it, and starts
// the scheduler. A failed inference fails New. Each namespace's job
// journal is loaded; documents a dead daemon left running are adopted
// as failed, documents it left queued — jobs that never wrote an
// outcome — are re-queued.
func New(cfg Config) (*Server, error) {
	// The daemon's lifetime root: jobs and SSE streams hang off it, and
	// Close cancels it. There is no inbound context to inherit here.
	//spexlint:ignore ctxflow daemon lifetime root, cancelled by Close
	ctx, cancel := context.WithCancel(context.Background())
	derived, err := derive(ctx, cfg.Workers)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("server: %w", err)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:        cfg,
		logger:     logger,
		ctx:        ctx,
		cancel:     cancel,
		bus:        dash.NewBus(dash.Options{}),
		derived:    derived,
		namespaces: make(map[string]*namespace),
		kick:       make(chan struct{}, 1),
		schedDone:  make(chan struct{}),
	}
	if _, err := s.openNamespace(DefaultNamespace); err != nil {
		cancel()
		return nil, err
	}
	// Discover named namespaces from previous daemon runs: any valid
	// subdirectory that carries a job journal was created by a POST.
	if entries, err := os.ReadDir(cfg.StateDir); err == nil {
		var names []string
		for _, e := range entries {
			if !e.IsDir() || validateNamespaceName(e.Name()) != nil {
				continue
			}
			if fi, err := os.Stat(filepath.Join(cfg.StateDir, e.Name(), jobsDirName)); err != nil || !fi.IsDir() {
				continue
			}
			names = append(names, e.Name())
		}
		sort.Strings(names)
		for _, name := range names {
			if _, err := s.openNamespace(name); err != nil {
				s.closeNamespaces()
				cancel()
				return nil, fmt.Errorf("server: namespace %q: %w", name, err)
			}
		}
	}
	go s.scheduler()
	s.kickScheduler()
	return s, nil
}

// openNamespace opens (creating if needed) one namespace's state
// directory, takes its writer lock, and loads its journal.
// Called from New and, under s.mu, from the lazy create path of
// POST /v1/ns/{ns}/jobs.
func (s *Server) openNamespace(name string) (*namespace, error) {
	dir := s.cfg.StateDir
	if name != DefaultNamespace {
		dir = filepath.Join(s.cfg.StateDir, name)
	}
	store, err := campaignstore.Open(dir)
	if err != nil {
		return nil, err
	}
	lock, err := store.Lock()
	if err != nil {
		return nil, err
	}
	docs, seq, err := loadJournal(dir)
	if err != nil {
		_ = lock.Unlock() // the journal error is the one worth reporting
		return nil, err
	}
	ns := &namespace{
		name:  name,
		dir:   dir,
		store: store,
		lock:  lock,
		jobs:  make(map[string]*job),
		busy:  make(map[string]string),
		seq:   seq,
	}
	for _, doc := range docs {
		// A queued job never started under the dead daemon: re-queue it
		// live instead of burying it as failed history. Anything else is
		// history the bus never carried.
		j := &job{doc: doc, journaled: doc.State != StateQueued}
		ns.jobs[doc.ID] = j
		ns.order = append(ns.order, doc.ID)
		if !j.journaled {
			s.bus.Publish(dash.Event{Namespace: name, Kind: dash.KindJob, Job: doc.ID, State: StateQueued})
			ns.pending = append(ns.pending, j)
		}
	}
	s.namespaces[name] = ns
	s.nsOrder = append(s.nsOrder, name)
	return ns, nil
}

// namespaceFor resolves a request's namespace. create opens a missing
// (valid) namespace on the fly — the POST /v1/ns/{ns}/jobs behavior.
func (s *Server) namespaceFor(name string, create bool) (*namespace, error) {
	if name == "" || name == DefaultNamespace {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.namespaces[DefaultNamespace], nil
	}
	if err := validateNamespaceName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ns := s.namespaces[name]; ns != nil {
		return ns, nil
	}
	if !create {
		return nil, fmt.Errorf("no namespace %q", name)
	}
	if s.closed {
		return nil, fmt.Errorf("%w: daemon is shutting down", errUnavailable)
	}
	ns, err := s.openNamespace(name)
	if err != nil {
		return nil, err
	}
	s.logger.Info("namespace created", "namespace", name, "dir", ns.dir)
	return ns, nil
}

// closeNamespaces releases every namespace's writer lock.
func (s *Server) closeNamespaces() error {
	var first error
	for _, name := range s.nsOrder {
		if err := s.namespaces[name].lock.Unlock(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close shuts the daemon down gracefully: running campaigns are
// cancelled through the engine's context plumbing (finished outcomes
// are already persisted — the stores stay resumable), queued jobs are
// marked cancelled, the job goroutines drain, and every namespace lock
// is released. Safe to call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		type nsJob struct {
			ns *namespace
			j  *job
		}
		var queued []nsJob
		for _, name := range s.nsOrder {
			ns := s.namespaces[name]
			for _, j := range ns.pending {
				queued = append(queued, nsJob{ns, j})
			}
			ns.pending = nil
		}
		s.mu.Unlock()
		for _, q := range queued {
			s.finishJob(q.ns, q.j, StateCancelled, "daemon shut down before the job started")
		}
		s.cancel()
		<-s.schedDone
		// Job goroutines observe the cancelled context and finish their
		// documents before the namespace locks go.
		s.jobsWG.Wait()
		// Every publisher has drained; end the dashboard streams.
		s.bus.Close()
		s.mu.Lock()
		defer s.mu.Unlock()
		s.closeErr = s.closeNamespaces()
	})
	return s.closeErr
}

// Serve runs the HTTP server on ln until ctx is cancelled (SIGTERM in
// cmd/spexd), then drains: in-flight handlers and running campaigns are
// stopped, the job journals are final, and every lock is released
// before returning. Serve closes ln.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		select {
		case <-ctx.Done():
		case <-s.ctx.Done():
		}
		// Stop the campaigns and the SSE streams first — Shutdown waits
		// for active handlers, and the SSE loops exit on s.ctx.
		s.cancel()
		// Deliberately not derived from ctx/s.ctx: both are already
		// cancelled here, and the drain deadline must survive them.
		//spexlint:ignore ctxflow shutdown drain outlives the cancelled roots
		sctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
		defer stop()
		_ = srv.Shutdown(sctx)
	}()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	s.cancel()
	<-shutdownDone
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

// errUnavailable marks transient submit rejections (drain, full
// queue): the spec was fine, the client should retry — 503, not 400.
var errUnavailable = errors.New("temporarily unavailable")

// submit validates a spec, registers the job in its namespace,
// journals it, and queues it for the scheduler.
func (s *Server) submit(ns *namespace, spec JobSpec) (Job, error) {
	if err := validateSpec(spec); err != nil {
		return Job{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("%w: daemon is shutting down", errUnavailable)
	}
	// Dependencies may only name already-submitted jobs in the same
	// namespace, so DAG edges always point backwards and cycles cannot
	// form. Checked under s.mu so a rejected POST leaves no trace.
	for _, need := range spec.Needs {
		if ns.jobs[need] == nil {
			s.mu.Unlock()
			return Job{}, fmt.Errorf("needs unknown job %q in namespace %q", need, ns.name)
		}
	}
	maxQueued := s.cfg.MaxQueuedJobs
	if maxQueued <= 0 {
		maxQueued = defaultMaxQueued
	}
	if len(ns.pending) >= maxQueued {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("%w: namespace %q job queue is full (%d queued)", errUnavailable, ns.name, maxQueued)
	}
	ns.seq++
	doc := Job{
		ID:        fmt.Sprintf("job-%06d", ns.seq),
		Namespace: ns.name,
		Spec:      spec,
		State:     StateQueued,
		CreatedAt: time.Now().UTC(),
	}
	j := &job{doc: doc}
	ns.jobs[doc.ID] = j
	ns.order = append(ns.order, doc.ID)
	ns.pending = append(ns.pending, j)
	mQueueDepth.With(ns.name).Set(float64(len(ns.pending)))
	if err := saveJournal(ns.dir, doc); err != nil {
		s.logger.Error("journal write failed", "job", doc.ID, "namespace", ns.name, "err", err)
	}
	mJobsByState.With(StateQueued, ns.name).Inc()
	depth, running := len(ns.pending), ns.running
	s.mu.Unlock()
	s.bus.Publish(dash.Event{Namespace: ns.name, Kind: dash.KindJob, Job: doc.ID, State: StateQueued})
	s.bus.Publish(dash.Event{Namespace: ns.name, Kind: dash.KindSched, Job: doc.ID,
		Sched: &dash.Sched{Op: "queue", QueueDepth: depth, Running: running}})
	s.kickScheduler()
	return doc, nil
}

// lookup finds a job by ID within a namespace.
func (s *Server) lookup(ns *namespace, id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ns.jobs[id]
}

// kickScheduler nudges the dispatcher; a pending nudge coalesces.
func (s *Server) kickScheduler() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// scheduler is the DAG dispatcher loop: every kick (submit, job
// finish, cancel) re-scans each namespace's pending queue and starts
// every job whose dependencies are done, whose namespace has quota,
// and whose systems are all unreserved.
func (s *Server) scheduler() {
	defer close(s.schedDone)
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.kick:
		}
		s.dispatch()
	}
}

// dispatch makes one scheduling pass. Reservations are all-or-nothing
// under s.mu — a job either reserves every system it campaigns or
// stays queued — so two jobs can never hold-and-wait on each other's
// systems, and no two running jobs of this daemon write one system.
func (s *Server) dispatch() {
	maxConcurrent := s.cfg.MaxConcurrentJobs
	if maxConcurrent <= 0 {
		maxConcurrent = defaultMaxConcurrent
	}
	type start struct {
		ns      *namespace
		j       *job
		systems []string
		// depth/running snapshot the namespace's queue shape after this
		// pass, captured under s.mu for the reserve event.
		depth, running int
	}
	type failure struct {
		ns  *namespace
		j   *job
		msg string
	}
	var starts []start
	var failures []failure
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	for _, name := range s.nsOrder {
		ns := s.namespaces[name]
		pend := ns.pending
		ns.pending = ns.pending[:0]
		for _, j := range pend {
			doc := j.snapshot()
			if doc.State != StateQueued {
				continue // cancelled while queued: drop from the queue
			}
			// DAG edges first: a job never reserves systems while a
			// dependency is unfinished.
			blocked, failMsg := false, ""
			for _, need := range doc.Spec.Needs {
				dep := ns.jobs[need]
				if dep == nil {
					failMsg = fmt.Sprintf("needs unknown job %q", need)
					break
				}
				switch depState := dep.snapshot().State; depState {
				case StateDone:
				case StateFailed, StateCancelled:
					failMsg = fmt.Sprintf("dependency %s %s", need, depState)
				default:
					blocked = true
				}
				if failMsg != "" {
					break
				}
			}
			if failMsg != "" {
				failures = append(failures, failure{ns, j, failMsg})
				continue
			}
			if blocked || ns.exclusive || ns.running >= maxConcurrent {
				ns.pending = append(ns.pending, j)
				continue
			}
			// A coordinate job owns its namespace outright: its workers
			// share the namespace's coord/ and shardN/ directories, which
			// have no per-job isolation.
			if doc.Spec.Coordinate >= 2 && ns.running > 0 {
				ns.pending = append(ns.pending, j)
				continue
			}
			systems, err := resolveSystems(doc.Spec)
			if err != nil { // validated at submit and journal load; unreachable in practice
				failures = append(failures, failure{ns, j, err.Error()})
				continue
			}
			names := make([]string, len(systems))
			conflict := false
			for i, sys := range systems {
				names[i] = sys.Name()
				if _, held := ns.busy[names[i]]; held {
					conflict = true
				}
			}
			if conflict {
				ns.pending = append(ns.pending, j)
				continue
			}
			for _, n := range names {
				ns.busy[n] = doc.ID
			}
			ns.running++
			if doc.Spec.Coordinate >= 2 {
				ns.exclusive = true
			}
			starts = append(starts, start{ns: ns, j: j, systems: names})
		}
		mQueueDepth.With(ns.name).Set(float64(len(ns.pending)))
		mJobsRunning.With(ns.name).Set(float64(ns.running))
		for i := range starts {
			if starts[i].ns == ns {
				starts[i].depth, starts[i].running = len(ns.pending), ns.running
			}
		}
	}
	s.mu.Unlock()
	for _, f := range failures {
		s.finishJob(f.ns, f.j, StateFailed, f.msg)
	}
	for _, st := range starts {
		s.bus.Publish(dash.Event{Namespace: st.ns.name, Kind: dash.KindSched, Job: st.j.snapshot().ID,
			Sched: &dash.Sched{Op: "reserve", Systems: st.systems, QueueDepth: st.depth, Running: st.running}})
		s.jobsWG.Add(1)
		go func(st start) {
			defer s.jobsWG.Done()
			s.runJob(st.ns, st.j, st.systems)
			s.releaseReservation(st.ns, st.j, st.systems)
			s.kickScheduler()
		}(st)
	}
}

// releaseReservation returns a finished job's systems to the board.
func (s *Server) releaseReservation(ns *namespace, j *job, systems []string) {
	id := j.snapshot().ID
	s.mu.Lock()
	for _, name := range systems {
		if ns.busy[name] == id {
			delete(ns.busy, name)
		}
	}
	ns.running--
	if ns.exclusive && j.snapshot().Spec.Coordinate >= 2 {
		ns.exclusive = false
	}
	mJobsRunning.With(ns.name).Set(float64(ns.running))
	depth, running := len(ns.pending), ns.running
	s.mu.Unlock()
	s.bus.Publish(dash.Event{Namespace: ns.name, Kind: dash.KindSched, Job: id,
		Sched: &dash.Sched{Op: "release", Systems: systems, QueueDepth: depth, Running: running}})
}

// runJob executes one dispatched job end to end: mint its write
// capability from the namespace lock, run the campaign, publish the
// lifecycle.
func (s *Server) runJob(ns *namespace, j *job, systems []string) {
	j.mu.Lock()
	if j.doc.State != StateQueued || j.doc.CancelRequested { // cancelled between dispatch and start
		j.mu.Unlock()
		return
	}
	now := time.Now().UTC()
	j.doc.State = StateRunning
	j.doc.StartedAt = &now
	jctx, cancel := context.WithCancel(s.ctx)
	j.cancel = cancel
	tr := obs.NewTrace(j.doc.ID)
	jctx, span := tr.Start(jctx, obs.SpanJob, j.doc.ID)
	j.trace = tr
	doc := j.docLocked()
	j.mu.Unlock()
	defer cancel()

	// The namespace lock keeps every other process out and the board
	// keeps this daemon's jobs apart; the job's write capability covers
	// exactly the systems it reserved.
	locks := ns.lock.Set(systems...)
	mLockWait.With(ns.name).Observe(time.Since(doc.CreatedAt).Seconds())

	if err := saveJournal(ns.dir, doc); err != nil {
		s.logger.Error("journal write failed", "job", doc.ID, "namespace", ns.name, "err", err)
	}
	s.bus.Publish(dash.Event{Namespace: ns.name, Kind: dash.KindJob, Job: doc.ID, State: StateRunning})
	mJobsByState.With(StateRunning, ns.name).Inc()
	s.logger.Info("job running", "job", doc.ID, "namespace", ns.name, "spec", describeSpec(doc.Spec))

	summaries, stats, err := s.execute(jctx, ns, doc.ID, doc.Spec, locks)

	state := StateDone
	msg := ""
	switch {
	case err != nil && errors.Is(err, context.Canceled):
		state = StateCancelled
		msg = "cancelled; finished outcomes are persisted and the store resumes where it stopped"
		j.mu.Lock()
		byRequest := j.doc.CancelRequested
		j.mu.Unlock()
		if !byRequest {
			msg = "daemon shut down mid-campaign; " +
				"finished outcomes are persisted and the store resumes where it stopped"
		}
	case err != nil:
		state = StateFailed
		msg = err.Error()
	}
	j.mu.Lock()
	j.doc.Systems = summaries
	j.doc.Steals, j.doc.Spawns, j.doc.Retries = stats.steals, stats.spawns, stats.retries
	j.mu.Unlock()
	// The trace is final and persisted before the terminal event, so a
	// client that saw the job end can read it.
	span.End(state)
	if err := campaignstore.WriteJSON(tracePath(ns.dir, doc.ID), tr.Doc()); err != nil {
		s.logger.Error("trace write failed", "job", doc.ID, "namespace", ns.name, "err", err)
	}
	s.finishJob(ns, j, state, msg)
	s.logger.Info("job finished", "job", doc.ID, "namespace", ns.name, "state", state)
}

// finishJob moves a job to a terminal state, journals it, publishes
// the terminal event, and ends the job's slice of the bus.
func (s *Server) finishJob(ns *namespace, j *job, state, msg string) {
	j.mu.Lock()
	if terminal(j.doc.State) {
		j.mu.Unlock()
		return
	}
	now := time.Now().UTC()
	j.doc.State = state
	j.doc.DoneAt = &now
	j.doc.Error = msg
	if j.doc.StartedAt != nil {
		mJobSeconds.Observe(now.Sub(*j.doc.StartedAt).Seconds())
	}
	doc := j.docLocked()
	j.mu.Unlock()
	mJobsByState.With(state, ns.name).Inc()
	if err := saveJournal(ns.dir, doc); err != nil {
		s.logger.Error("journal write failed", "job", doc.ID, "namespace", ns.name, "err", err)
	}
	s.bus.Publish(dash.Event{Namespace: ns.name, Kind: dash.KindJob, Job: doc.ID, State: state, Error: msg})
	s.bus.EndJob(ns.name, doc.ID)
}

// coordStats carries a coordinate job's rebalance counters.
type coordStats struct{ steals, spawns, retries int }

// execute runs every job as one pipeline on the job's one pool:
// infer → inject → eval. The infer step takes its systems' workloads
// from the daemon's derivation (New inferred them once), the inject
// step is one shard.CampaignAll over every system (coord.Run over the
// same workloads for a coordinate job, so no job infers), and eval
// reads each system's outcome index. A plain job is [infer, inject] and
// publishes no stage events; a staged job runs and reports exactly its
// listed stages. Each system's inject step ends at its completion
// event, which CampaignAll delivers after the goroutine that resolved
// the system's last outcome saved it or found it unchanged, so a small
// system is evaluated while a big one still injects and `workers`
// bounds the whole job; a job without the eval stage reads the
// fingerprints of the systems saved or found unchanged after the
// campaign. Every progress event goes, throttled, onto the
// bus; the campaign opens its own spans under the job span ctx carries.
func (s *Server) execute(ctx context.Context, ns *namespace, jobID string, spec JobSpec, locks *campaignstore.LockSet) ([]SystemSummary, coordStats, error) {
	systems, err := resolveSystems(spec)
	if err != nil {
		return nil, coordStats{}, err
	}
	workers := spec.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}
	opts := inject.DefaultOptions()
	if spec.SimDelay != "" {
		d, err := time.ParseDuration(spec.SimDelay)
		if err != nil {
			return nil, coordStats{}, err
		}
		opts.SimCostDelay = d
	}
	onProgress := func(p shard.Progress) { s.bus.FoldProgress(ns.name, jobID, p) }
	stages := spec.Stages
	if len(stages) == 0 {
		stages = []string{StageInfer, StageInject}
	}
	has := make(map[string]bool, len(stages))
	for _, st := range stages {
		has[st] = true
	}
	emit := func(system, stage, state, msg string) {
		if len(spec.Stages) > 0 && has[stage] {
			s.bus.Publish(dash.Event{Namespace: ns.name, Kind: dash.KindStage, Job: jobID,
				Stage: &dash.Stage{System: system, Stage: stage, State: state, Error: msg}})
		}
	}
	emitAll := func(stage, state, msg string) {
		for _, sys := range systems {
			emit(sys.Name(), stage, state, msg)
		}
	}
	summaries := make([]SystemSummary, len(systems))
	pos := make(map[string]int, len(systems))
	for i, sys := range systems {
		summaries[i].System = sys.Name()
		pos[sys.Name()] = i
	}
	var firstErr error
	record := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// eval reads a system's outcome index into its summary — a stat and
	// the index the store kept when it saved or last read the system
	// (only a daemon's first read of a snapshot it never saved parses
	// it): the fingerprint for every job, and as the eval stage the
	// stored tallies.
	eval := func(i int) error {
		name := systems[i].Name()
		emit(name, StageEval, "running", "")
		idx, err := ns.store.LoadIndex(name)
		if err != nil {
			emit(name, StageEval, "failed", err.Error())
			return fmt.Errorf("%s: eval: %w", name, err)
		}
		summaries[i].Fingerprint = idx.Fingerprint
		if has[StageEval] {
			summaries[i].Outcomes, summaries[i].Vulnerabilities = idx.Agg.Outcomes, idx.Agg.Vulnerabilities
		}
		emit(name, StageEval, "done", "")
		return nil
	}
	// finishInject ends a system's inject step from its finished run, then
	// runs its eval stage.
	injected := make([]bool, len(systems))
	finishInject := func(run *shard.SystemRun) error {
		i := pos[run.Sys.Name()]
		injected[i] = true
		summaries[i] = summarize(run.Sys.Name(), run.Report)
		if run.Err != nil {
			emit(run.Sys.Name(), StageInject, "failed", run.Err.Error())
			return fmt.Errorf("%s: snapshot not saved: %w", run.Sys.Name(), run.Err)
		}
		emit(run.Sys.Name(), StageInject, "done", "")
		if has[StageEval] {
			return eval(i)
		}
		return nil
	}

	// Infer. It feeds the inject step, so it runs whenever either stage
	// is listed; it is only reported when listed.
	var ws []shard.Workload
	if has[StageInfer] || has[StageInject] {
		emitAll(StageInfer, "running", "")
		ws = s.derived.workloads(systems)
		emitAll(StageInfer, "done", "")
	}

	switch {
	case spec.Coordinate >= 2:
		// The embedded shard coordinator: N workers on lease files under
		// the namespace's state directory, work-stealing rebalance,
		// bounded worker retries, and the final merge of the job's
		// systems into the canonical store through the job's write
		// capability. It plans from the job's workloads, and in-process
		// workers restrict the same workloads to their leases.
		stealMin := coord.DefaultStealMin
		if spec.StealMin != nil {
			stealMin = *spec.StealMin
		}
		spawn := inprocSpawner(ws, coord.WorkerOptions{Workers: workers, Inject: opts, OnProgress: onProgress})
		if len(s.cfg.SpawnArgv) > 0 {
			spawn = coord.ExecSpawner(s.cfg.SpawnArgv)
		}
		res, err := coord.Run(ctx, coord.Config{
			StateDir:      ns.dir,
			Workers:       spec.Coordinate,
			Workloads:     ws,
			Inject:        opts,
			StealMin:      stealMin,
			WorkerRetries: coord.DefaultWorkerRetries,
			Locks:         locks,
			Spawn:         spawn,
			OnEvent: func(e coord.Event) {
				s.bus.Publish(dash.Event{Namespace: ns.name, Kind: dash.KindCoord, Job: jobID, Coord: &e})
			},
		})
		if err != nil {
			return nil, coordStats{}, err
		}
		summaries = summaries[:0]
		for _, st := range res.Stats {
			sum := SystemSummary{System: st.System, Outcomes: st.Outcomes, Fingerprint: st.Fingerprint}
			if idx, err := ns.store.LoadIndex(st.System); err == nil {
				sum.Vulnerabilities = idx.Agg.Vulnerabilities
			}
			summaries = append(summaries, sum)
		}
		return summaries, coordStats{steals: res.Steals, spawns: res.Spawns, retries: res.Retries}, nil
	case has[StageInject]:
		emitAll(StageInject, "running", "")
		runs, runErr := shard.CampaignAll(ctx, locks, ws, shard.Options{Workers: workers, Inject: opts,
			OnProgress: func(p shard.Progress) {
				onProgress(p)
				if p.Run != nil {
					record(finishInject(p.Run))
				}
			}})
		for i := range runs {
			switch {
			case injected[i]:
			case runErr != nil:
				// Cancelled before the system completed: its finished
				// outcomes are saved, but it never reaches eval.
				summaries[i] = summarize(runs[i].Sys.Name(), runs[i].Report)
				emit(runs[i].Sys.Name(), StageInject, "failed", runErr.Error())
			default: // nothing to run, so no completion event
				record(finishInject(&runs[i]))
			}
		}
		if runErr != nil {
			return summaries, coordStats{}, runErr
		}
		if !has[StageEval] {
			// Read after the campaign, so no index is held in memory while
			// other systems still run.
			for i := range runs {
				if st := runs[i].Status; st.Saved || st.Unchanged {
					record(eval(i))
				}
			}
		}
	case has[StageEval]:
		for i := range systems {
			record(eval(i))
		}
	}
	return summaries, coordStats{}, firstErr
}

// inprocSpawner runs coordinate-job workers as goroutines over
// coord.RunWorker — the default when no spawn template is configured.
// Every worker reads the job's workloads, locks its own shard directory
// and reports to the job's progress callback.
func inprocSpawner(ws []shard.Workload, wopts coord.WorkerOptions) coord.SpawnFunc {
	return func(ctx context.Context, spec coord.WorkerSpec) (coord.Handle, error) {
		wctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() {
			_, err := coord.RunWorker(wctx, spec.LeasePath, spec.StateDir, ws, wopts)
			done <- err
		}()
		return &goWorkerHandle{cancel: cancel, done: done}, nil
	}
}

type goWorkerHandle struct {
	cancel context.CancelFunc
	done   chan error
}

func (h *goWorkerHandle) Wait() error { return <-h.done }
func (h *goWorkerHandle) Interrupt()  { h.cancel() }

func describeSpec(spec JobSpec) string {
	target := "all systems"
	if !spec.All {
		target = fmt.Sprintf("%v", spec.Systems)
	}
	if spec.Coordinate >= 2 {
		return fmt.Sprintf("%s, coordinate %d", target, spec.Coordinate)
	}
	if len(spec.Stages) > 0 {
		return fmt.Sprintf("%s, stages %v", target, spec.Stages)
	}
	return target
}

// combinedEtag folds the per-system snapshot fingerprints into one
// entity tag for endpoints whose response spans systems. Any change to
// any snapshot changes its fingerprint, which changes the tag.
func combinedEtag(systems []*outcomeindex.System) string {
	h := sha256.New()
	for _, sys := range systems {
		fmt.Fprintf(h, "%s:%s\n", sys.System, sys.Fingerprint)
	}
	return `"` + hex.EncodeToString(h.Sum(nil))[:32] + `"`
}

// etagMatch reports whether the request's If-None-Match covers etag.
func etagMatch(r *http.Request, etag string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	for _, cand := range strings.Split(inm, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

// serveCached sets the ETag and answers 304 when the client already
// holds this version. Returns true when the request is done.
func serveCached(w http.ResponseWriter, r *http.Request, etag string) bool {
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") != "" {
		mEtagChecks.Inc()
	}
	if etagMatch(r, etag) {
		mEtag304.Inc()
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// ---- HTTP ----

// statusWriter captures the response code for the request counters. It
// forwards Flush so the SSE stream still streams through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handle registers one instrumented route: the wrapper times every
// request and counts it by endpoint name and status code. The endpoint
// name is a fixed label (never the raw path — paths carry unbounded
// job IDs, system names, and namespaces, which would explode the
// series space).
func handle(mux *http.ServeMux, pattern, endpoint string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		mHTTPSeconds.With(endpoint).Observe(time.Since(start).Seconds())
		mHTTPRequests.With(endpoint, strconv.Itoa(sw.code)).Inc()
	})
}

// nsHandler adapts a namespace-scoped handler to http.HandlerFunc:
// the un-prefixed route serves the default namespace, the /v1/ns/{ns}
// variant resolves (and, when create is set, lazily opens) the named
// one.
func (s *Server) nsHandler(create bool, h func(ns *namespace, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ns, err := s.namespaceFor(r.PathValue("ns"), create)
		if err != nil {
			code := http.StatusNotFound
			switch {
			case errors.Is(err, errUnavailable):
				code = http.StatusServiceUnavailable
			case strings.Contains(err.Error(), "bad namespace") || strings.Contains(err.Error(), "reserved"):
				code = http.StatusBadRequest
			}
			writeError(w, code, err)
			return
		}
		h(ns, w, r)
	}
}

// Handler returns the daemon's HTTP API. Every namespace-scoped route
// is registered twice: bare under /v1 (default namespace, today's
// URLs) and under /v1/ns/{ns} for named tenants.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	scoped := func(suffix, endpoint string, create bool, h func(*namespace, http.ResponseWriter, *http.Request)) {
		method, path, _ := strings.Cut(suffix, " ")
		handle(mux, method+" /v1"+path, endpoint, s.nsHandler(create, h))
		handle(mux, method+" /v1/ns/{ns}"+path, endpoint, s.nsHandler(create, h))
	}
	scoped("GET /status", "status", false, s.handleStatus)
	scoped("GET /jobs", "jobs_list", false, s.handleJobsList)
	scoped("POST /jobs", "jobs_create", true, s.handleJobsCreate)
	scoped("GET /jobs/{id}", "job_get", false, s.handleJobGet)
	scoped("DELETE /jobs/{id}", "job_delete", false, s.handleJobDelete)
	scoped("GET /jobs/{id}/events", "job_events", false, func(ns *namespace, w http.ResponseWriter, r *http.Request) {
		j := s.lookup(ns, r.PathValue("id"))
		if j == nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		doc := j.snapshot()
		if !j.journaled {
			s.serveBus(w, r, dash.SubOptions{Namespace: ns.name, Job: doc.ID})
			return
		}
		// The bus never carried a previous daemon run's job: its stream
		// is one terminal frame built from the journal.
		e := dash.Event{V: dash.SchemaVersion, Namespace: ns.name, Kind: dash.KindJob,
			Job: doc.ID, State: doc.State, Error: doc.Error}
		if doc.DoneAt != nil {
			e.Time = *doc.DoneAt
		}
		ended := make(chan dash.Event)
		close(ended)
		s.serveSub(w, r, dash.Sub{Backlog: []dash.Event{e}, Ch: ended})
	})
	scoped("GET /jobs/{id}/trace", "job_trace", false, s.handleJobTrace)
	scoped("GET /systems", "systems", false, s.handleSystems)
	scoped("GET /systems/{name}/outcomes", "outcomes", false, s.handleOutcomes)
	scoped("GET /tables/{n}", "table", false, s.handleTable)
	scoped("GET /query", "query", false, s.handleQuery)
	handle(mux, "GET /v1/ns", "ns_list", s.handleNamespaces)
	// The aggregate stream is deliberately NOT a scoped() route: bare
	// /v1/events carries every namespace's events, not the default
	// namespace's — only the /v1/ns/{ns}/ variant filters.
	handle(mux, "GET /v1/events", "events", func(w http.ResponseWriter, r *http.Request) {
		s.serveBus(w, r, dash.SubOptions{})
	})
	handle(mux, "GET /v1/ns/{ns}/events", "events", s.nsHandler(false,
		func(ns *namespace, w http.ResponseWriter, r *http.Request) {
			s.serveBus(w, r, dash.SubOptions{Namespace: ns.name})
		}))
	handle(mux, "GET /ui/", "ui", dash.UI().ServeHTTP)
	mux.Handle("GET /ui", http.RedirectHandler("/ui/", http.StatusMovedPermanently))
	// The scrape endpoint itself stays outside the instrumented wrapper
	// so scraping never perturbs the request counters it reports.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleMetrics serves the process-global registry in Prometheus text
// exposition format — every instrumented layer the daemon links
// (engine, store, event bus, coordinator, sim monitor, this server).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default().WritePrometheus(w)
}

// handleNamespaces lists every open namespace with its queue shape.
func (s *Server) handleNamespaces(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]map[string]any, 0, len(s.nsOrder))
	for _, name := range s.nsOrder {
		ns := s.namespaces[name]
		out = append(out, map[string]any{
			"name":    name,
			"dir":     ns.dir,
			"jobs":    len(ns.order),
			"queued":  len(ns.pending),
			"running": ns.running,
		})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"namespaces": out})
}

// handleJobTrace serves a job's span tree: live from its trace for jobs
// run by this daemon, from the persisted trace document for journaled
// history. ?format=text renders the indented tree.
func (s *Server) handleJobTrace(ns *namespace, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookup(ns, id)
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	j.mu.Lock()
	tr := j.trace
	j.mu.Unlock()
	var doc obs.TraceDoc
	if tr != nil {
		doc = tr.Doc()
	} else {
		data, err := os.ReadFile(tracePath(ns.dir, id))
		if err != nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("no trace for job %q (the job never started under this daemon)", id))
			return
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("trace document: %w", err))
			return
		}
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, doc.Text())
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleStatus(ns *namespace, w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	counts := map[string]int{}
	running := ""
	var runningJobs []string
	for _, id := range ns.order {
		doc := ns.jobs[id].snapshot()
		counts[doc.State]++
		if doc.State == StateRunning {
			if running == "" {
				running = doc.ID
			}
			runningJobs = append(runningJobs, doc.ID)
		}
	}
	nsCount := len(s.nsOrder)
	s.mu.Unlock()
	systems, _ := ns.store.List()
	writeJSON(w, http.StatusOK, map[string]any{
		"namespace":    ns.name,
		"namespaces":   nsCount,
		"state_dir":    ns.dir,
		"jobs":         counts,
		"running":      running,
		"running_jobs": runningJobs,
		"systems":      systems,
	})
}

func (s *Server) handleJobsCreate(ns *namespace, w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
		return
	}
	doc, err := s.submit(ns, spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errUnavailable) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, doc)
}

func (s *Server) handleJobsList(ns *namespace, w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	docs := make([]Job, 0, len(ns.order))
	for _, id := range ns.order {
		docs = append(docs, ns.jobs[id].snapshot())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": docs})
}

func (s *Server) handleJobGet(ns *namespace, w http.ResponseWriter, r *http.Request) {
	j := s.lookup(ns, r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleJobDelete(ns *namespace, w http.ResponseWriter, r *http.Request) {
	j := s.lookup(ns, r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	// The request is recorded under the job lock, so it cannot race the
	// scheduler's queued→running transition: either the request wins
	// (the job goroutine sees it and never starts the job) or the start
	// wins (the DELETE lands on the running branch and cancels the
	// context).
	j.mu.Lock()
	state, cancel := j.doc.State, j.cancel
	if !terminal(state) {
		j.doc.CancelRequested = true
	}
	j.mu.Unlock()
	switch state {
	case StateQueued:
		// Never started: terminal immediately; the dispatcher drops it.
		s.finishJob(ns, j, StateCancelled, "cancelled while queued")
		s.kickScheduler()
		writeJSON(w, http.StatusOK, j.snapshot())
	case StateRunning:
		if cancel != nil {
			cancel()
		}
		writeJSON(w, http.StatusAccepted, j.snapshot())
	default:
		writeError(w, http.StatusConflict, fmt.Errorf("job is already %s", state))
	}
}

// lastEventID parses the SSE Last-Event-ID request header a
// reconnecting EventSource (or spexwatch) sends: the id of the last
// frame it saw. Absent or malformed yields 0; an id past uint64
// saturates, which resumes like an id from a previous daemon run.
func lastEventID(r *http.Request) uint64 {
	n, _ := strconv.ParseUint(strings.TrimSpace(r.Header.Get("Last-Event-ID")), 10, 64)
	return n
}

// serveBus streams one filtered bus subscription as SSE — the handler
// behind GET /v1/events (every namespace), GET /v1/ns/{ns}/events (one
// tenant) and GET /v1/jobs/{id}/events (one job). A reconnecting client
// resumes after its Last-Event-ID.
func (s *Server) serveBus(w http.ResponseWriter, r *http.Request, o dash.SubOptions) {
	o.AfterSeq = lastEventID(r)
	sub := s.bus.Subscribe(o)
	defer sub.Cancel()
	s.serveSub(w, r, sub)
}

// serveSub writes a subscription as SSE frames — each frame's id: is
// the bus sequence number, its event: the kind, its data: the compact
// dash.Event — until the subscription ends (the bus closed, or the
// watched job finished), the client leaves, or the daemon shuts down.
// A comment frame flags a backlog that starts mid-stream.
func (s *Server) serveSub(w http.ResponseWriter, r *http.Request, sub dash.Sub) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(e dash.Event) bool {
		data, err := json.Marshal(e)
		if err == nil {
			_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data)
		}
		return err == nil
	}

	if sub.Truncated {
		fmt.Fprint(w, ": resume truncated, earlier events are no longer retained\n\n")
	}
	for _, e := range sub.Backlog {
		if !writeEvent(e) {
			return
		}
	}
	flusher.Flush()
	interval := s.cfg.KeepaliveInterval
	if interval <= 0 {
		interval = defaultKeepalive
	}
	keepalive := time.NewTicker(interval)
	defer keepalive.Stop()
	for {
		select {
		case e, open := <-sub.Ch:
			if !open {
				return // the job finished, or the bus closed
			}
			if !writeEvent(e) {
				return
			}
			flusher.Flush()
		case <-keepalive.C:
			// SSE comment frame: keeps proxies and load balancers from
			// idling out a quiet stream; clients ignore comments.
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
			mSSEKeepalives.Inc()
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

func (s *Server) handleSystems(ns *namespace, w http.ResponseWriter, r *http.Request) {
	idxs, err := ns.store.LoadIndexAll()
	if err != nil {
		writeError(w, storeErrCode(err), err)
		return
	}
	if serveCached(w, r, combinedEtag(idxs)) {
		return
	}
	systems := make([]string, len(idxs))
	for i, idx := range idxs {
		systems[i] = idx.System
	}
	writeJSON(w, http.StatusOK, map[string]any{"systems": systems})
}

// OutcomeView is one recorded outcome in API form.
type OutcomeView struct {
	Key           string `json:"key"`
	ID            string `json:"id"`
	Param         string `json:"param"`
	Description   string `json:"description,omitempty"`
	Reaction      string `json:"reaction"`
	Vulnerability bool   `json:"vulnerability"`
	Pinpointed    bool   `json:"pinpointed"`
	FailedTest    string `json:"failed_test,omitempty"`
	Loc           string `json:"loc,omitempty"`
	SimCost       int    `json:"sim_cost"`
}

// Paging bounds for the outcomes listing: without ?limit a page holds
// defaultPageLimit outcomes, and no ?limit can raise it past
// maxPageLimit — a million-outcome system must never be one response.
const (
	defaultPageLimit = 1000
	maxPageLimit     = 10000
)

// pageParams parses ?limit/?offset. A limit above maxPageLimit clamps.
func pageParams(r *http.Request) (limit, offset int, err error) {
	limit = defaultPageLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 1 {
			return 0, 0, fmt.Errorf("bad limit %q (want a positive integer)", v)
		}
		if limit > maxPageLimit {
			limit = maxPageLimit
		}
	}
	if v := r.URL.Query().Get("offset"); v != "" {
		offset, err = strconv.Atoi(v)
		if err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("bad offset %q (want a non-negative integer)", v)
		}
	}
	return limit, offset, nil
}

// storeErrCode maps a store read failure to its HTTP status: no
// campaign yet is the client's to fix (submit a job), a schema-stale
// snapshot converges by rerunning the campaign, anything else is a
// server fault.
func storeErrCode(err error) int {
	switch {
	case errors.Is(err, campaignstore.ErrNotExist):
		return http.StatusNotFound
	case errors.Is(err, campaignstore.ErrStale):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleOutcomes(ns *namespace, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	limit, offset, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	idx, err := ns.store.LoadIndex(name)
	if err != nil {
		writeError(w, storeErrCode(err), err)
		return
	}
	if serveCached(w, r, `"`+idx.Fingerprint+`"`) {
		return
	}
	// The page slices the doc list (already in ascending key order);
	// the tallies always cover the whole system, not the page.
	page := idx.Docs
	if offset >= len(page) {
		page = nil
	} else {
		page = page[offset:]
		if len(page) > limit {
			page = page[:limit]
		}
	}
	views := make([]OutcomeView, len(page))
	for i := range page {
		d := &page[i]
		views[i] = OutcomeView{
			Key:           d.Key,
			ID:            d.ID,
			Param:         d.Param,
			Description:   d.Description,
			Reaction:      d.ReactionName(),
			Vulnerability: d.Vulnerability(),
			Pinpointed:    d.Pinpointed,
			FailedTest:    d.FailedTest,
			Loc:           d.LocString(),
			SimCost:       d.SimCost,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"system":          idx.System,
		"saved_at":        idx.SavedAt,
		"total":           idx.Agg.Outcomes,
		"offset":          offset,
		"limit":           limit,
		"outcomes":        views,
		"by_reaction":     idx.Agg.ByReaction,
		"vulnerabilities": idx.Agg.Vulnerabilities,
	})
}

// handleQuery answers the cross-system misconfiguration query from the
// outcome indexes alone: which (parameter, rule) families match the
// filters, in how many systems, with what reactions. The posting lists
// narrow the scan per system.
func (s *Server) handleQuery(ns *namespace, w http.ResponseWriter, r *http.Request) {
	q := outcomeindex.Query{
		Param:    r.URL.Query().Get("param"),
		Kind:     r.URL.Query().Get("kind"),
		Reaction: r.URL.Query().Get("reaction"),
	}
	if v := r.URL.Query().Get("min-systems"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad min-systems %q (want a non-negative integer)", v))
			return
		}
		q.MinSystems = n
	}
	switch v := r.URL.Query().Get("all"); v {
	case "", "0", "false":
	case "1", "true":
		q.All = true
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad all %q (want 1 or 0)", v))
		return
	}
	idxs, err := ns.store.LoadIndexAll()
	if err != nil {
		writeError(w, storeErrCode(err), err)
		return
	}
	if serveCached(w, r, combinedEtag(idxs)) {
		return
	}
	groups := outcomeindex.Run(idxs, q)
	systems := make([]string, len(idxs))
	for i, idx := range idxs {
		systems[i] = idx.System
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"systems": systems,
		"total":   len(groups),
		"groups":  groups,
	})
}

// replayResults serves the memoized read-only analysis, recomputing it
// from the daemon's derivation (report.ReplayWorkloadsFromIndex — the
// tables render the held indexes and never infer) only when the
// combined store fingerprint moved — a client fetching all twelve
// tables pays for one index replay, not twelve. Failed replays
// (incomplete state) are never cached; the next request retries. The
// analysis renders the very indexes the returned etag hashes, so a
// save landing mid-request can never put a newer body under an older
// tag.
func (ns *namespace) replayResults(d *derivation) ([]*report.SystemResult, string, error) {
	idxs, err := ns.store.LoadIndexAll()
	if err != nil {
		return nil, "", err
	}
	etag := combinedEtag(idxs)
	ns.tablesMu.Lock()
	defer ns.tablesMu.Unlock()
	if ns.tablesCache != nil && ns.tablesKey == etag {
		mTablesHits.Inc()
		return ns.tablesCache, etag, nil
	}
	results, err := report.ReplayWorkloadsFromIndex(idxs, d.results, d.ws)
	if err != nil {
		return nil, "", err
	}
	mTablesRebuilds.Inc()
	ns.tablesCache = results
	ns.tablesKey = etag
	return results, etag, nil
}

func (s *Server) handleTable(ns *namespace, w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil || n < 1 || n > report.MaxTable {
		writeError(w, http.StatusNotFound, fmt.Errorf("no table %q (want 1-%d)", r.PathValue("n"), report.MaxTable))
		return
	}
	results, etag, err := ns.replayResults(s.derived)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, report.ErrStateIncomplete) || errors.Is(err, campaignstore.ErrStale) ||
			errors.Is(err, campaignstore.ErrNotExist) {
			code = http.StatusConflict
		}
		writeError(w, code, err)
		return
	}
	if serveCached(w, r, etag) {
		return
	}
	if r.URL.Query().Get("format") == "text" {
		text, err := report.RenderTableText(n, results)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// spexeval prints each table with fmt.Println: table text + \n.
		fmt.Fprintln(w, text)
		return
	}
	tables, err := report.BuildTables(n, results)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"table": n, "tables": tables})
}
