// Command spexd is the campaign service daemon: a resident, multi-
// tenant process that owns a root campaign state directory, hosts any
// number of namespaces under it, runs misconfiguration-injection
// campaigns on demand, and serves results and live progress over a
// JSON HTTP API (internal/server). Where spexinj and spexeval are
// one-shot CLI invocations against a -state dir, spexd holds each
// namespace's writer lock (<ns>/.spex.lock) for its whole lifetime and
// schedules jobs inside it — the service form of the same engine,
// store, scheduler, and coordinator stack.
//
// Jobs over disjoint system sets run concurrently (up to -max-jobs per
// namespace); jobs sharing a system serialize on the scheduler's
// reservation of that system.
// Each job runs infer → inject → eval on one pool of its `workers`
// width; the daemon infers the seven targets once at start-up, and
// every job and table rebuild reuses that inference. A job may declare dependencies (needs: [jobID...]) to form a
// DAG, or stages: ["infer", "inject", "eval"] to report each system's
// stage transitions as it finishes them. Jobs
// are journaled durably under <ns>/jobs/ (a restarted daemon lists
// finished jobs and re-queues jobs that never started). Every event —
// lifecycle, scheduling, stages, coordinator moves, and campaign
// progress throttled to at most one sample per system per 200ms plus
// completions — goes onto one event bus that every Server-Sent Events
// stream subscribes to, filtered: the whole daemon, one namespace, or
// one job. Frames are versioned dash.Event JSON ("v":1) whose SSE id is
// the bus sequence number, for Last-Event-ID resume. Reads — outcome
// listings and the paper's evaluation tables — are served read-only
// from the store's atomic snapshots and work even while a job is
// writing; table text is byte-identical to a
// `spexeval -state <dir> -table N` run over the same store.
//
// # Quickstart (see also examples/quickstart/README.md)
//
//	spexd -state /var/lib/spex -addr 127.0.0.1:8476 &
//
//	# submit a campaign over every target, 4 workers wide
//	curl -s -X POST localhost:8476/v1/jobs \
//	     -d '{"all": true, "workers": 4}'
//	# => {"id": "job-000001", "state": "queued", ...}
//
//	# watch the job (SSE: "job" lifecycle frames, throttled per-system
//	# "progress", "stage"/"coord" frames; the stream ends right after
//	# the terminal "job" frame)
//	curl -N localhost:8476/v1/jobs/job-000001/events
//
//	# or watch the whole daemon: the embedded dashboard at
//	# http://localhost:8476/ui/, the daemon-wide event bus
//	# (curl -N localhost:8476/v1/events — every namespace's lifecycle,
//	# scheduler, and progress events), or a remote terminal attach
//	# (spexwatch -addr localhost:8476)
//
//	# poll status; then fetch results
//	curl -s localhost:8476/v1/jobs/job-000001
//	curl -s localhost:8476/v1/systems/proxyd/outcomes
//	curl -s 'localhost:8476/v1/tables/5?format=text'   # == spexeval -table 5
//	curl -s -X DELETE localhost:8476/v1/jobs/job-000002   # cancel
//
// A job body may also name specific targets and engage the embedded
// work-stealing coordinator (internal/coord):
//
//	curl -s -X POST localhost:8476/v1/jobs \
//	     -d '{"systems": ["proxyd", "mydb"], "coordinate": 2}'
//
// # Namespaces and the job DAG
//
// Every /v1 route addresses the default namespace — the root state
// directory, so a single-tenant daemon keeps the URLs above. The same
// routes exist under /v1/ns/{ns}/ for named tenants, each a full state
// directory at <state>/<ns>/ created on first job submission:
//
//	# tenant "alpha" gets its own store, journal, queue, and quotas
//	curl -s -X POST localhost:8476/v1/ns/alpha/jobs \
//	     -d '{"systems": ["proxyd"], "workers": 4}'
//	curl -s 'localhost:8476/v1/ns/alpha/tables/5?format=text'
//	curl -s localhost:8476/v1/ns            # list namespaces
//
// Jobs in one namespace schedule as a DAG: needs waits for other jobs,
// stages reports infer → inject → eval per system as "stage" events (a
// system is saved and evaluated when its last misconfiguration
// completes, so a fast system evaluates while a slow one still
// injects, all on the job's one pool):
//
//	curl -s -X POST localhost:8476/v1/jobs \
//	     -d '{"systems": ["mydb"], "needs": ["job-000001"]}'
//	curl -s -X POST localhost:8476/v1/jobs \
//	     -d '{"all": true, "stages": ["infer", "inject", "eval"]}'
//
// Coordinate-job workers run in-process by default; -spawn replaces
// them with external worker processes from a command template (the
// same {lease}/{state}/{worker} placeholders as `spexinj -spawn`, so
// an SSH preset fans workers out across machines sharing the state
// directory). External workers report through heartbeat files only:
// with -spawn, a coordinate job's event stream carries the coordinator
// lifecycle events (spawn/steal/retry/merge) but no "progress" events
// — those need the in-process default.
//
// SIGINT/SIGTERM shut the daemon down gracefully: running campaigns
// drain through the engine's cancellation path (finished outcomes are
// already persisted — the stores resume where they stopped), queued
// jobs are journaled cancelled, and every namespace's writer lock is
// released.
//
// Usage:
//
//	spexd -state /var/lib/spex
//	spexd -state /var/lib/spex -addr 127.0.0.1:8476 -workers 8
//	spexd -state /var/lib/spex -spawn "ssh w{worker}.cluster spexinj -lease {lease} -state {state} -all"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"spex/internal/obs"
	"spex/internal/server"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		state      = flag.String("state", "", "campaign state directory the daemon takes ownership of (required)")
		addr       = flag.String("addr", "127.0.0.1:8476", "HTTP listen address")
		workers    = flag.Int("workers", 0, "default campaign pool width for jobs that don't set one (0 = one per CPU)")
		spawn      = flag.String("spawn", "", "coordinate jobs: worker command template with {lease}/{state}/{worker} placeholders (default: in-process workers)")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		pprof      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (operator profiling surface)")
		maxJobs    = flag.Int("max-jobs", 0, "max concurrently running jobs per namespace (0 = 4)")
		maxQueue   = flag.Int("max-queued", 0, "max queued jobs per namespace before submits answer 503 (0 = 256)")
		metricsOut = flag.String("metrics-out", "", "on graceful shutdown, dump the process metrics registry as JSON to this file (server, engine, store, and dashboard bus series)")
	)
	flag.Parse()
	defer func() {
		if *metricsOut == "" {
			return
		}
		if err := obs.Default().WriteJSONFile(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "spexd: metrics-out: %v\n", err)
		}
	}()
	if *state == "" {
		fmt.Fprintln(os.Stderr, "spexd: -state is required (the daemon owns a campaign state directory)")
		return 2
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "spexd: bad -log-level %q (want debug, info, warn, or error)\n", *logLevel)
		return 2
	}

	cfg := server.Config{
		StateDir:          *state,
		Workers:           *workers,
		Logger:            slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})),
		Pprof:             *pprof,
		MaxConcurrentJobs: *maxJobs,
		MaxQueuedJobs:     *maxQueue,
	}
	if *spawn != "" {
		cfg.SpawnArgv = strings.Fields(*spawn)
	}
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexd: %v\n", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bind before announcing, so the line names the bound port (an -addr
	// of port 0 picks a free one) and never precedes a bind failure.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexd: %v\n", errors.Join(err, s.Close()))
		return 1
	}
	fmt.Fprintf(os.Stderr, "spexd: serving %s on http://%s\n", *state, ln.Addr())
	if err := s.Serve(ctx, ln); err != nil {
		fmt.Fprintf(os.Stderr, "spexd: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "spexd: drained; state lock released")
	return 0
}
