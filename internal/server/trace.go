// Campaign trace recording: the daemon folds the progress and
// coordinator event streams it already publishes over SSE into an
// obs.Trace span tree — job → system → misconf, with steal spans under
// the job for coordinate runs. The recorder is wholly event-driven (no
// hooks inside the engine beyond the Elapsed field progress events
// carry), the finished tree is journaled next to the job document, and
// GET /v1/jobs/{id}/trace serves it as JSON or indented text.
package server

import (
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"spex/internal/coord"
	"spex/internal/obs"
	"spex/internal/shard"
)

// maxMisconfSpans bounds the misconf spans kept per system: a large
// campaign completes thousands of misconfigurations, and the trace is
// a readable summary, not a second outcome store. Once a system hits
// the cap, later outcomes only extend the system span; the count of
// elided spans is recorded as a `dropped` attribute on the system.
const maxMisconfSpans = 256

// tracePath is the job's persisted trace document, next to its journal
// entry. Its name is not a job ID's, so loadJournal never reads it.
func tracePath(stateDir, id string) string {
	return filepath.Join(stateDir, jobsDirName, id+".trace.json")
}

// traceRecorder accumulates one running job's span tree.
type traceRecorder struct {
	mu      sync.Mutex
	tr      *obs.Trace
	job     *obs.Span
	systems map[string]*systemSpans
}

// systemSpans tracks one system's open span and its misconf budget.
type systemSpans struct {
	span *obs.Span
	// last is the newest event time — the end the system span closes
	// with, so one slow system doesn't stretch every other system's
	// span to the job's end.
	last    time.Time
	kept    int
	dropped int
}

func newTraceRecorder(jobID string, start time.Time) *traceRecorder {
	tr := obs.NewTrace(jobID)
	return &traceRecorder{
		tr:      tr,
		job:     tr.Span(obs.SpanJob, jobID, "", start),
		systems: make(map[string]*systemSpans),
	}
}

// observeProgress folds one completed-outcome event into the tree. The
// system span opens on the system's first event; each outcome becomes
// a misconf span reconstructed from the event's Elapsed (start = now −
// elapsed), zero-length for replays.
func (rec *traceRecorder) observeProgress(p shard.Progress, now time.Time) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	sys := rec.systems[p.System]
	if sys == nil {
		sys = &systemSpans{span: rec.tr.Span(obs.SpanSystem, p.System, rec.job.ID(), now.Add(-p.Elapsed))}
		rec.systems[p.System] = sys
	}
	sys.last = now
	if sys.kept >= maxMisconfSpans {
		sys.dropped++
		return
	}
	sys.kept++
	name := p.Key
	if name == "" {
		name = fmt.Sprintf("outcome-%d", p.SystemDone)
	}
	span := rec.tr.Span(obs.SpanMisconf, name, sys.span.ID(), now.Add(-p.Elapsed))
	status := "ok"
	switch {
	case p.Yielded:
		status = "yielded"
	case p.Failed:
		status = "failed"
	}
	if p.Elapsed == 0 {
		span.SetAttr("replayed", "true")
	}
	span.Finish(now, status)
}

// observeCoord records work-stealing rebalances as steal spans under
// the job (point events: zero duration, the move is instantaneous from
// the coordinator's view).
func (rec *traceRecorder) observeCoord(e coord.Event, now time.Time) {
	if e.Kind != "steal" {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	span := rec.tr.Span(obs.SpanSteal, fmt.Sprintf("worker-%d<-worker-%d", e.Worker, e.From), rec.job.ID(), now)
	span.SetAttr("keys", strconv.Itoa(e.Keys))
	span.Finish(now, "ok")
}

// finish closes every open span with the job's terminal state and
// snapshots the tree.
func (rec *traceRecorder) finish(state string, now time.Time) obs.TraceDoc {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, sys := range rec.systems {
		end := sys.last
		if end.IsZero() {
			end = now
		}
		if sys.dropped > 0 {
			sys.span.SetAttr("dropped", strconv.Itoa(sys.dropped))
		}
		sys.span.Finish(end, state)
	}
	rec.job.Finish(now, state)
	return rec.tr.Doc()
}

// doc snapshots the tree as it stands — served for still-running jobs.
func (rec *traceRecorder) doc() obs.TraceDoc {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.tr.Doc()
}
