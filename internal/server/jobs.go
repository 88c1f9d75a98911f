package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/inject"
	"spex/internal/shard"
	"spex/internal/sim"
	"spex/internal/spex"
	"spex/internal/targets"
)

// JobSpec is the body of POST /v1/jobs: which campaign to run and how.
type JobSpec struct {
	// Systems names the targets to campaign (see GET /v1/systems for
	// the store's contents, `spex -list` for all targets).
	Systems []string `json:"systems,omitempty"`
	// All campaigns every target — the CLI's -all.
	All bool `json:"all,omitempty"`
	// Workers bounds the campaign's worker pool (0 = the daemon's
	// default, itself 0 = one per CPU).
	Workers int `json:"workers,omitempty"`
	// Coordinate, when >= 2, runs the campaign through the embedded
	// shard coordinator (internal/coord) with this many workers:
	// plan → lease → steal → merge under the daemon's state
	// directory, exactly like `spexinj -coordinate N`, over the
	// workloads the daemon inferred once. At most MaxCoordinate: every
	// worker gets its own lease file and shard directory.
	Coordinate int `json:"coordinate,omitempty"`
	// StealMin overrides the coordinator's rebalance threshold
	// (coordinate jobs only; nil = coord.DefaultStealMin).
	StealMin *int `json:"steal_min,omitempty"`
	// SimDelay realizes each simulated cost unit as wall time (a Go
	// duration string, e.g. "2ms") — the scheduling knob demos and the
	// cancellation smoke use; it does not affect outcomes or snapshot
	// identity.
	SimDelay string `json:"sim_delay,omitempty"`
	// Needs lists job IDs (in the same namespace) that must reach
	// "done" before this job may start — the DAG edge. A dependency
	// that fails or is cancelled fails this job instead of running it.
	// Only already-submitted jobs can be named, so cycles cannot form.
	Needs []string `json:"needs,omitempty"`
	// Stages names the pipeline stages to run and report: an ordered
	// subsequence of infer → inject → eval (empty = a plain job, infer
	// and inject without stage events). Every transition is published
	// per system as a "stage" event. The stages are events on the job's
	// one pool, not barriers: a system's inject and eval finish when its
	// last misconfiguration completes, so a fast system can be in eval
	// while a slow one is still injecting. Incompatible with Coordinate.
	Stages []string `json:"stages,omitempty"`
}

// MaxCoordinate bounds JobSpec.Coordinate.
const MaxCoordinate = 64

// decodeSpec reads a POST /v1/jobs body: one JobSpec, no unknown
// fields.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// validateSpec holds the checks a spec must pass on its own, before
// any namespace state is consulted — at submit, and again for a queued
// job read back from the journal, which is disk input.
func validateSpec(spec JobSpec) error {
	if _, err := resolveSystems(spec); err != nil {
		return err
	}
	if spec.Coordinate == 1 || spec.Coordinate < 0 {
		return errors.New("coordinate needs at least 2 workers (a single shard has nobody to steal from)")
	}
	if spec.Coordinate > MaxCoordinate {
		return fmt.Errorf("coordinate %d exceeds the limit of %d workers", spec.Coordinate, MaxCoordinate)
	}
	if spec.SimDelay != "" {
		if _, err := time.ParseDuration(spec.SimDelay); err != nil {
			return fmt.Errorf("bad sim_delay: %v", err)
		}
	}
	if err := validateStages(spec.Stages); err != nil {
		return err
	}
	if len(spec.Stages) > 0 && spec.Coordinate != 0 {
		return errors.New("a staged pipeline cannot run under the coordinator (stages pipeline per system; the coordinator shards per worker)")
	}
	return nil
}

// Pipeline stage names (JobSpec.Stages), in pipeline order.
const (
	StageInfer  = "infer"
	StageInject = "inject"
	StageEval   = "eval"
)

// validateStages checks that stages is a non-repeating, in-order
// subsequence of infer → inject → eval.
func validateStages(stages []string) error {
	pos := map[string]int{StageInfer: 0, StageInject: 1, StageEval: 2}
	last := -1
	for _, st := range stages {
		p, ok := pos[st]
		if !ok {
			return fmt.Errorf("unknown stage %q (want %s, %s, %s)", st, StageInfer, StageInject, StageEval)
		}
		if p <= last {
			return fmt.Errorf("stages must follow %s → %s → %s order without repeats", StageInfer, StageInject, StageEval)
		}
		last = p
	}
	return nil
}

// Job states. A job is terminal in StateDone, StateFailed, or
// StateCancelled.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// terminal reports whether a job state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// SystemSummary is one system's result line on a finished job.
type SystemSummary struct {
	System          string `json:"system"`
	Outcomes        int    `json:"outcomes"`
	Vulnerabilities int    `json:"vulnerabilities,omitempty"`
	UniqueLocations int    `json:"unique_locations,omitempty"`
	Replayed        int    `json:"replayed"`
	Executed        int    `json:"executed"`
	SimCost         int    `json:"sim_cost"`
	Skipped         int    `json:"skipped,omitempty"`
	// Fingerprint is the system's snapshot fingerprint after the job
	// (campaignstore.Snapshot.Fingerprint) — the replay-equivalence
	// hash a client diffs against a CLI run's store.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// summarize builds a system's summary line from its campaign report
// (the fingerprint is the caller's to add once the snapshot is saved).
func summarize(system string, rep *inject.Report) SystemSummary {
	return SystemSummary{
		System:          system,
		Outcomes:        len(rep.Outcomes),
		Vulnerabilities: len(rep.Vulnerabilities()),
		UniqueLocations: rep.UniqueLocations(),
		Replayed:        rep.Replayed,
		Executed:        rep.Finished() - rep.Replayed,
		SimCost:         rep.TotalSimCost,
		Skipped:         rep.Skipped,
	}
}

// Job is the API document describing one submitted campaign — also the
// journal document persisted under <state>/jobs/, so a restarted
// daemon lists the jobs that ran before it.
type Job struct {
	ID string `json:"id"`
	// Namespace names the namespace the job was submitted to ("" in
	// journals written before namespaces existed — the default).
	Namespace string     `json:"namespace,omitempty"`
	Spec      JobSpec    `json:"spec"`
	State     string     `json:"state"`
	CreatedAt time.Time  `json:"created_at"`
	StartedAt *time.Time `json:"started_at,omitempty"`
	DoneAt    *time.Time `json:"done_at,omitempty"`
	// CancelRequested reports that DELETE was accepted; a running job
	// turns cancelled once the engine drains, a queued one at once.
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// Error explains a failed or cancelled job.
	Error string `json:"error,omitempty"`
	// Systems summarizes the campaign per target (terminal jobs).
	Systems []SystemSummary `json:"systems,omitempty"`
	// Steals/Spawns/Retries describe a coordinate job's rebalancing.
	Steals  int `json:"steals,omitempty"`
	Spawns  int `json:"spawns,omitempty"`
	Retries int `json:"retries,omitempty"`
}

// job pairs the API document with the live machinery: the cancel hook
// and the trace recorder. Its events live on the daemon's bus.
type job struct {
	mu  sync.Mutex
	doc Job
	// journaled marks a terminal document loaded from a previous daemon
	// run's journal: the bus never carried its events.
	journaled bool
	// cancel stops the running campaign (set while running; a queued
	// job cancels by state flip).
	cancel context.CancelFunc
	// trace is the job's span recorder, set when the job starts
	// running; nil for journaled history from previous daemon runs
	// (their trace, if any, is read back from disk).
	trace *traceRecorder
}

// snapshot returns a copy of the API document.
func (j *job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.docLocked()
}

func (j *job) docLocked() Job {
	doc := j.doc
	doc.Systems = append([]SystemSummary(nil), j.doc.Systems...)
	return doc
}

// derivation is the daemon's one inference over the seven targets: their
// inference results and workloads (misconfigurations and their replay
// keys), in targets.All order. New computes it; nothing writes it
// afterwards, so every job and every table rebuild reads it
// concurrently.
type derivation struct {
	results []*spex.Result
	ws      []shard.Workload
	pos     map[string]int // system name → index
}

// derive infers the seven targets and builds their workloads.
func derive(ctx context.Context, workers int) (*derivation, error) {
	systems := targets.All()
	results, err := spex.InferAll(ctx, systems, workers)
	if err != nil {
		return nil, err
	}
	ws, _, err := shard.BuildWorkloads(systems, results, shard.Plan{})
	if err != nil {
		return nil, err
	}
	d := &derivation{results: results, ws: ws, pos: make(map[string]int, len(ws))}
	for i, w := range ws {
		d.pos[w.Sys.Name()] = i
	}
	return d, nil
}

// workloads returns a job's systems' workloads, in the order given.
// Campaigns only read a workload, so every job shares the derivation's.
func (d *derivation) workloads(systems []sim.System) []shard.Workload {
	ws := make([]shard.Workload, len(systems))
	for i, sys := range systems {
		ws[i] = d.ws[d.pos[sys.Name()]]
	}
	return ws
}

// resolveSystems validates a spec's target list.
func resolveSystems(spec JobSpec) ([]sim.System, error) {
	if spec.All {
		return targets.All(), nil
	}
	if len(spec.Systems) == 0 {
		return nil, errors.New(`job names no targets: set "all": true or "systems": [...]`)
	}
	seen := make(map[string]bool)
	var out []sim.System
	for _, name := range spec.Systems {
		sys := targets.ByName(name)
		if sys == nil {
			return nil, fmt.Errorf("unknown system %q", name)
		}
		if seen[sys.Name()] {
			continue
		}
		seen[sys.Name()] = true
		out = append(out, sys)
	}
	return out, nil
}

// jobsDirName is the durable job journal under the state directory.
// (campaignstore ignores subdirectories, so journal files can never be
// mistaken for snapshots.)
const jobsDirName = "jobs"

// journalPath is the job's document file.
func journalPath(stateDir, id string) string {
	return filepath.Join(stateDir, jobsDirName, id+".json")
}

// jobIDRE is the form submit gives job IDs (job-%06d).
var jobIDRE = regexp.MustCompile(`^job-[0-9]{6,}$`)

// saveJournal persists the document atomically
// (campaignstore.WriteJSON, the advisory-document contract: readers
// never see a torn document; the snapshots carry the real outcomes, so
// no fsync).
func saveJournal(stateDir string, doc Job) error {
	return campaignstore.WriteJSON(journalPath(stateDir, doc.ID), doc)
}

// loadJournal reads every persisted job document, oldest ID first. A
// document still queued belonged to a daemon that died before the job
// ever started — no outcome was written — so it is returned as queued
// for the restarted daemon to re-queue, if its spec still passes
// validateSpec; one that does not is adopted as failed with the
// reason. A document that had started (running) is adopted as failed:
// the campaign state itself is resumable — snapshots only ever hold
// finished outcomes — so the fix is to resubmit. Repaired documents are
// written back so the journal converges. A document is adopted only
// under its own file name — a job ID whose file is <id>.json — because
// the ID names every file the daemon later writes for the job: an ID
// that escapes jobs/, or that a second file also claims, is not a job.
func loadJournal(stateDir string) ([]Job, int, error) {
	dir := filepath.Join(stateDir, jobsDirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("server: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("server: %w", err)
	}
	var jobs []Job
	maxSeq := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		var doc Job
		if json.Unmarshal(data, &doc) != nil || !jobIDRE.MatchString(doc.ID) || doc.ID+".json" != e.Name() {
			continue
		}
		fail := ""
		switch {
		case doc.State == StateQueued:
			if err := validateSpec(doc.Spec); err != nil {
				fail = "journaled job spec is invalid: " + err.Error()
			}
		case !terminal(doc.State):
			fail = "daemon stopped while the job was " + doc.State +
				"; campaign snapshots hold every finished outcome — resubmit to resume"
		}
		if fail != "" {
			doc.State, doc.Error = StateFailed, fail
			if doc.DoneAt == nil {
				now := time.Now().UTC()
				doc.DoneAt = &now
			}
			_ = saveJournal(stateDir, doc)
		}
		var seq int
		if _, err := fmt.Sscanf(doc.ID, "job-%d", &seq); err == nil && seq > maxSeq {
			maxSeq = seq
		}
		jobs = append(jobs, doc)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	return jobs, maxSeq, nil
}
