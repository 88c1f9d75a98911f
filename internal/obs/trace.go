// Campaign tracing: a Trace records a tree of spans — job → system →
// misconf/steal — with parent IDs, wall-clock bounds, and an outcome
// status. The recorder rides the existing progress plumbing (spexd
// feeds it from each job's progress callback), so tracing adds no hooks
// to the engine; the finished tree is journaled next to the
// job document and served at GET /v1/jobs/{id}/trace as JSON or an
// indented text rendering.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span kinds used by the campaign recorder. Free-form strings are
// allowed; these are the vocabulary the daemon emits.
const (
	SpanJob     = "job"
	SpanSystem  = "system"
	SpanMisconf = "misconf"
	SpanSteal   = "steal"
)

// Trace accumulates spans for one job. Safe for concurrent use.
type Trace struct {
	mu    sync.Mutex
	job   string
	next  int
	spans []*Span
}

// Span is one timed node in the trace tree. Fields are mutated only
// through methods, which serialize on the owning trace's lock.
type Span struct {
	tr     *Trace
	id     string
	parent string
	kind   string
	name   string
	start  time.Time
	end    time.Time
	status string
	attrs  map[string]string
}

// NewTrace starts an empty trace for the named job.
func NewTrace(job string) *Trace { return &Trace{job: job} }

// Span appends a new span. Parent is the ID of the enclosing span
// ("" for the root); IDs are assigned deterministically in creation
// order (s1, s2, ...).
func (t *Trace) Span(kind, name, parent string, start time.Time) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := &Span{tr: t, id: fmt.Sprintf("s%d", t.next), parent: parent, kind: kind, name: name, start: start}
	t.spans = append(t.spans, s)
	return s
}

// ID returns the span's identifier, for parenting child spans.
func (s *Span) ID() string { return s.id }

// SetAttr attaches one key=value annotation.
func (s *Span) SetAttr(k, v string) {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[k] = v
}

// Finish closes the span with an end time and outcome status. Calling
// it again moves the end forward (the recorder extends system spans as
// progress arrives).
func (s *Span) Finish(end time.Time, status string) {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.end = end
	s.status = status
}

// TraceDoc is the serialized form of a trace. The top-level key is
// "job" — deliberately not "id", so the daemon's journal loader never
// mistakes a trace file for a job document.
type TraceDoc struct {
	Job   string    `json:"job"`
	Spans []SpanDoc `json:"spans"`
}

// SpanDoc is one span in serialized form.
type SpanDoc struct {
	ID         string            `json:"id"`
	Parent     string            `json:"parent,omitempty"`
	Kind       string            `json:"kind"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	End        time.Time         `json:"end"`
	DurationNS int64             `json:"duration_ns"`
	Status     string            `json:"status,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Doc snapshots the trace into its serialized form.
func (t *Trace) Doc() TraceDoc {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := TraceDoc{Job: t.job, Spans: make([]SpanDoc, 0, len(t.spans))}
	for _, s := range t.spans {
		sd := SpanDoc{
			ID: s.id, Parent: s.parent, Kind: s.kind, Name: s.name,
			Start: s.start, End: s.end, Status: s.status,
		}
		if !s.end.IsZero() && s.end.After(s.start) {
			sd.DurationNS = s.end.Sub(s.start).Nanoseconds()
		}
		if len(s.attrs) > 0 {
			sd.Attrs = make(map[string]string, len(s.attrs))
			for k, v := range s.attrs {
				sd.Attrs[k] = v
			}
		}
		doc.Spans = append(doc.Spans, sd)
	}
	return doc
}

// Text renders the span tree as indented lines:
//
//	job job-000001 1.24s done
//	  system proxyd 810ms done
//	    misconf max_connections=0 3ms failed
//
// Orphaned spans (parent never recorded) render as roots.
func (d TraceDoc) Text() string {
	children := make(map[string][]int)
	known := make(map[string]bool, len(d.Spans))
	for _, s := range d.Spans {
		known[s.ID] = true
	}
	var roots []int
	for i, s := range d.Spans {
		if s.Parent != "" && known[s.Parent] {
			children[s.Parent] = append(children[s.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	var sb strings.Builder
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		s := d.Spans[idx]
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(s.Kind)
		sb.WriteByte(' ')
		sb.WriteString(s.Name)
		dur := "-"
		if s.DurationNS > 0 {
			dur = time.Duration(s.DurationNS).Round(time.Microsecond).String()
		}
		sb.WriteByte(' ')
		sb.WriteString(dur)
		if s.Status != "" {
			sb.WriteByte(' ')
			sb.WriteString(s.Status)
		}
		if len(s.Attrs) > 0 {
			keys := make([]string, 0, len(s.Attrs))
			for k := range s.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, " %s=%s", k, s.Attrs[k])
			}
		}
		sb.WriteByte('\n')
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return sb.String()
}
