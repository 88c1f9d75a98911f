// Campaign tracing: a Trace records a tree of spans — job → system →
// misconf, with worker and steal spans for coordinate runs — with
// parent IDs, wall-clock bounds, and an outcome status. Spans ride the
// context: the code doing the work opens each one under the span its
// ctx carries (Start) and ends it when the work ends, so the tree holds
// what happened. A ctx without a span records nothing and costs no
// allocation. spexd opens each job's root span, journals the finished
// tree next to the job document, and serves it at GET
// /v1/jobs/{id}/trace as JSON or an indented text rendering.
package obs

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span kinds the campaign path opens. Free-form strings are allowed;
// these are the vocabulary the daemon's traces hold.
const (
	SpanJob     = "job"
	SpanSystem  = "system"
	SpanMisconf = "misconf"
	SpanWorker  = "worker"
	SpanSteal   = "steal"
)

// maxChildren bounds the children one span records: a large campaign
// completes thousands of misconfigurations, and the trace is a
// readable summary, not a second outcome store. Later children are
// counted in the parent's `dropped` attribute, and record nothing
// themselves, descendants included.
const maxChildren = 256

// Trace accumulates spans for one job. Safe for concurrent use.
type Trace struct {
	mu    sync.Mutex
	job   string
	spans []*Span
}

// Span is one timed node in the trace tree. Fields are mutated only
// through methods, which serialize on the owning trace's lock. A nil
// *Span is valid and records nothing.
type Span struct {
	tr       *Trace
	id       string
	parent   string
	kind     string
	name     string
	start    time.Time
	end      time.Time
	status   string
	attrs    map[string]string
	children int
	dropped  int
}

// spanKey is the context key the current span rides under.
type spanKey struct{}

// NewTrace starts an empty trace for the named job.
func NewTrace(job string) *Trace { return &Trace{job: job} }

// Start opens a root span and returns ctx carrying it.
func (t *Trace) Start(ctx context.Context, kind, name string) (context.Context, *Span) {
	s := t.open(nil, kind, name)
	return context.WithValue(ctx, spanKey{}, s), s
}

// Start opens a child of the span ctx carries and returns ctx carrying
// the child. Without a span on ctx it returns ctx and nil.
func Start(ctx context.Context, kind, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	return parent.Start(ctx, kind, name)
}

// Start opens a child of s and returns ctx carrying the child. A nil s,
// or one that already holds maxChildren, opens nothing: the returned ctx
// then carries no span, so the child's descendants record nothing.
func (s *Span) Start(ctx context.Context, kind, name string) (context.Context, *Span) {
	var child *Span
	if s != nil {
		child = s.tr.open(s, kind, name)
	}
	if child == nil && ctx.Value(spanKey{}) == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, child), child
}

// open appends a span under parent (nil: a root) and assigns its ID in
// creation order (s1, s2, ...), so a parent always precedes its
// children. It returns nil, and counts the span as dropped, when parent
// already holds maxChildren.
func (t *Trace) open(parent *Span, kind, name string) *Span {
	s := &Span{tr: t, kind: kind, name: name, start: time.Now().UTC()}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent != nil {
		if parent.children == maxChildren {
			parent.dropped++
			return nil
		}
		parent.children++
		s.parent = parent.id
	}
	s.id = "s" + strconv.Itoa(len(t.spans)+1)
	t.spans = append(t.spans, s)
	return s
}

// SetAttr attaches one key=value annotation.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[k] = v
}

// End closes the span now with its outcome status.
func (s *Span) End(status string) {
	if s == nil {
		return
	}
	now := time.Now().UTC()
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.end, s.status = now, status
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
		if len(s.attrs) > 0 || s.dropped > 0 {
			sd.Attrs = make(map[string]string, len(s.attrs)+1)
			for k, v := range s.attrs {
				sd.Attrs[k] = v
			}
			if s.dropped > 0 {
				sd.Attrs["dropped"] = strconv.Itoa(s.dropped)
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
