// Package dash is the daemon's live-operations surface: one
// process-wide event bus carrying every event the daemon emits — job
// lifecycle transitions across every namespace, scheduler reservations
// and releases, queue depth, stage transitions, coordinator
// rebalancing, and throttled per-system campaign progress — plus the
// embedded web UI that renders it.
//
// The bus is the daemon's only event fan-out: internal/server publishes
// into it from every lifecycle site, and every consumer (the
// /v1/events SSE stream, each job's /v1/jobs/{id}/events stream, the
// /ui/ dashboard, a remote spexwatch) is just a subscriber. Delivery is
// best-effort by design — a stalled subscriber can never stall the
// daemon. Each subscriber has a bounded buffer; when it is full the
// OLDEST buffered event is dropped to make room (drop accounting lands
// on spex_dash_dropped_total, labelled by the dropped event's
// namespace). Raw channel sends of dash.Event outside this package are
// a spexlint `hubsend` finding: Publish is the only emit path.
//
// Every event carries a schema version (Event.V) and a bus-assigned,
// strictly increasing sequence number (Event.Seq). The bus retains a
// bounded ring of recent events, so a subscriber reconnecting with the
// last sequence number it saw (SSE Last-Event-ID) replays what it
// missed — or learns the ring has moved past it (Sub.Truncated). It
// also retains each job's own events, so a job-filtered subscriber
// replays the job's history however late it attaches.
package dash

import (
	"strings"
	"sync"
	"time"

	"spex/internal/shard"
)

// SchemaVersion is the event payload schema carried in Event.V.
// Consumers should ignore events with a newer major version than they
// understand; additive field changes do not bump it.
const SchemaVersion = 1

// Event kinds. One SSE frame's `event:` field is exactly the kind.
const (
	// KindJob is a job lifecycle transition (Event.State holds the new
	// state, Event.Error a failure message).
	KindJob = "job"
	// KindSched is a scheduler transition: a job queued, its systems
	// reserved, or its reservation released (Event.Sched).
	KindSched = "sched"
	// KindProgress is a throttled per-system campaign progress sample
	// (Event.Progress) folded in from the owning job's campaign.
	KindProgress = "progress"
	// KindStage is a staged job's per-system pipeline transition
	// (Event.Stage).
	KindStage = "stage"
	// KindCoord is a coordinate job's rebalance lifecycle event
	// (Event.Coord).
	KindCoord = "coord"
)

// Sched is the payload of a KindSched event.
type Sched struct {
	// Op is "queue" (job entered the queue), "reserve" (the dispatcher
	// claimed the job's systems and started it), or "release" (a
	// finished job returned its systems to the board).
	Op string `json:"op"`
	// Systems lists the reserved/released system names (reserve and
	// release only).
	Systems []string `json:"systems,omitempty"`
	// QueueDepth and Running are the namespace's queue shape after the
	// transition.
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
}

// Stage is the payload of a KindStage event — one system entering or
// leaving a pipeline stage of a staged job.
type Stage struct {
	System string `json:"system"`
	Stage  string `json:"stage"`
	// State is "running", "done", or "failed".
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// Coord is the payload of a KindCoord event, mirroring the
// coordinator's lifecycle verbs (plan, resume, spawn, exit, retry,
// steal, merge).
type Coord struct {
	Kind    string `json:"kind"`
	Worker  int    `json:"worker,omitempty"`
	From    int    `json:"from,omitempty"`
	Keys    int    `json:"keys,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Event is one entry of the bus — the typed, versioned wire form of
// GET /v1/events and GET /v1/jobs/{id}/events (compact JSON in each
// SSE data: line, the Seq mirrored as the frame's id:).
type Event struct {
	// V is the payload schema version (SchemaVersion; Publish stamps
	// it).
	V int `json:"v"`
	// Seq is the bus-assigned, strictly increasing sequence number —
	// the SSE event id a reconnecting subscriber resumes from.
	Seq uint64 `json:"seq"`
	// Time is the publish time (UTC; Publish stamps it when zero).
	Time time.Time `json:"time"`
	// Namespace names the tenant the event belongs to.
	Namespace string `json:"namespace"`
	// Kind discriminates the payload: job, sched, progress, stage,
	// coord.
	Kind string `json:"kind"`
	// Job is the owning job ID (every kind except pure queue-shape
	// sched events).
	Job string `json:"job,omitempty"`
	// State and Error carry a KindJob lifecycle transition.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Progress is a KindProgress sample — the shard.Progress the CLI
	// renderers consume, throttled per (job, system).
	Progress *shard.Progress `json:"progress,omitempty"`
	Sched    *Sched          `json:"sched,omitempty"`
	Stage    *Stage          `json:"stage,omitempty"`
	Coord    *Coord          `json:"coord,omitempty"`
}

// Options tunes a Bus.
type Options struct {
	// Ring bounds how many recent events are retained for
	// Last-Event-ID resume (0 = 4096).
	Ring int
	// ProgressInterval throttles FoldProgress: at most one KindProgress
	// event per (namespace, job, system) per interval, plus the first
	// sample and every completion (0 = 200ms).
	ProgressInterval time.Duration
}

const (
	defaultRing             = 4096
	defaultProgressInterval = 200 * time.Millisecond
	// jobRetention bounds how many of one job's events are retained for
	// job-filtered subscribers, oldest dropped first.
	jobRetention = 4096
	// AllNamespaces is the subscriber-gauge label for an unfiltered
	// subscription.
	AllNamespaces = "all"
)

// Bus is the daemon-wide event bus. Create with NewBus; publish with
// Publish (and FoldProgress for the throttled progress feed); close a
// finished job's slice with EndJob; attach consumers with Subscribe;
// Close ends every subscription.
type Bus struct {
	opts Options

	mu     sync.Mutex
	seq    uint64
	ring   []Event // oldest first, len <= opts.Ring
	jobs   map[jobKey]*retention
	subs   map[int]*subscriber
	nextID int
	closed bool
	// lastEmit throttles FoldProgress per (namespace, job, system).
	lastEmit map[string]time.Time
}

type jobKey struct{ ns, job string }

// retention is one job's replayable history: every event published
// with its (namespace, job), oldest first.
type retention struct {
	events []Event
	// lost is the highest Seq the retention no longer holds — evicted by
	// the cap or compacted away by EndJob.
	lost uint64
	// ended freezes the retention (EndJob): later events of the job,
	// such as the scheduler's release, reach the ring but not the job's
	// history.
	ended bool
}

type subscriber struct {
	ch     chan Event
	filter SubOptions
}

// NewBus returns an empty bus.
func NewBus(opts Options) *Bus {
	if opts.Ring <= 0 {
		opts.Ring = defaultRing
	}
	if opts.ProgressInterval <= 0 {
		opts.ProgressInterval = defaultProgressInterval
	}
	return &Bus{
		opts:     opts,
		jobs:     make(map[jobKey]*retention),
		subs:     make(map[int]*subscriber),
		lastEmit: make(map[string]time.Time),
	}
}

// Publish stamps the event (V, Seq, Time), appends it to the resume
// ring and to its job's retention, and fans it out to every matching
// subscriber. It never blocks: a subscriber whose buffer is full loses
// its oldest buffered event. Publish after Close is a no-op.
func (b *Bus) Publish(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.seq++
	e.Seq = b.seq
	if e.V == 0 {
		e.V = SchemaVersion
	}
	if e.Time.IsZero() {
		e.Time = time.Now().UTC()
	}
	if len(b.ring) >= b.opts.Ring {
		b.ring = b.ring[1:]
	}
	b.ring = append(b.ring, e)
	if e.Job != "" {
		if r := b.retained(e.Namespace, e.Job); !r.ended {
			if len(r.events) >= jobRetention {
				r.lost = r.events[0].Seq
				r.events = r.events[1:]
			}
			r.events = append(r.events, e)
		}
	}
	mDashEvents.With(e.Namespace).Inc()
	for _, sub := range b.subs {
		if !sub.filter.matches(e) {
			continue
		}
		select {
		case sub.ch <- e:
		default:
			// Full: shed the oldest buffered event, then retry once. The
			// retry can still lose the race against a draining consumer —
			// then the buffer has room next Publish anyway.
			select {
			case old := <-sub.ch:
				mDashDropped.With(old.Namespace).Inc()
			default:
			}
			select {
			case sub.ch <- e:
			default:
				mDashDropped.With(e.Namespace).Inc()
			}
		}
	}
}

// retained returns the job's retention, creating it; b.mu must be held.
func (b *Bus) retained(namespace, job string) *retention {
	k := jobKey{namespace, job}
	r := b.jobs[k]
	if r == nil {
		r = &retention{}
		b.jobs[k] = r
	}
	return r
}

// FoldProgress folds one job's campaign progress stream into the bus,
// throttled per (namespace, job, system): the first sample for a
// system always publishes, a completed system or campaign always
// publishes, and everything in between is sampled at most once per
// ProgressInterval — the stream carries live bars without carrying
// every one of a million outcomes.
func (b *Bus) FoldProgress(namespace, job string, p shard.Progress) {
	key := namespace + "\x00" + job + "\x00" + p.System
	final := p.SystemTotal > 0 && p.SystemDone >= p.SystemTotal
	campaignDone := p.Total > 0 && p.Done >= p.Total
	now := time.Now()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	last, seen := b.lastEmit[key]
	if seen && !final && !campaignDone && now.Sub(last) < b.opts.ProgressInterval {
		b.mu.Unlock()
		return
	}
	if final {
		delete(b.lastEmit, key)
	} else {
		b.lastEmit[key] = now
	}
	b.mu.Unlock()
	pc := p
	pc.Run = nil // the bus retains the wire form, not the finished report
	b.Publish(Event{Namespace: namespace, Kind: KindProgress, Job: job, Progress: &pc})
}

// EndJob closes a finished job's slice of the bus; call it right after
// publishing the job's terminal KindJob event. It drops the job's
// progress-throttle state, compacts its retention to the non-progress
// events (live progress means nothing once the job is terminal, and a
// resident daemon keeps every job's retention for its lifetime),
// freezes the retention, and closes every job-filtered subscription
// once it drains its buffer — the terminal event last.
func (b *Bus) EndJob(namespace, job string) {
	prefix := namespace + "\x00" + job + "\x00"
	b.mu.Lock()
	defer b.mu.Unlock()
	for k := range b.lastEmit {
		if strings.HasPrefix(k, prefix) {
			delete(b.lastEmit, k)
		}
	}
	if r := b.retained(namespace, job); !r.ended {
		r.ended = true
		var kept []Event // a fresh array: the old one is not pinned
		for _, e := range r.events {
			if e.Kind == KindProgress {
				r.lost = e.Seq
				continue
			}
			kept = append(kept, e)
		}
		r.events = kept
	}
	for id, sub := range b.subs {
		if sub.filter.Job == job && sub.filter.Namespace == namespace {
			b.detach(id, sub)
		}
	}
}

// Sub is one attached subscription.
type Sub struct {
	// Backlog replays retained events the subscriber asked for (Seq >
	// AfterSeq, filtered), oldest first. Consume it before ranging over
	// Ch; no event is in both, and none is lost between.
	Backlog []Event
	// Truncated reports that the backlog starts mid-stream: events past
	// AfterSeq were evicted by the ring or the job's retention cap,
	// compacted away when the job ended, or AfterSeq came from a
	// previous daemon run, whose sequence the bus does not continue.
	Truncated bool
	// Ch delivers live events until Cancel, Bus.Close or, for a job
	// subscription, EndJob, whichever comes first (buffered events drain
	// before the close).
	Ch <-chan Event
	// Cancel detaches the subscription; safe to call more than once.
	Cancel func()
}

// SubOptions tunes one subscription.
type SubOptions struct {
	// Namespace filters the stream to one tenant ("" = every
	// namespace).
	Namespace string
	// Job filters the stream to one job of Namespace. A job
	// subscription replays from the job's retention, not the ring, and
	// ends with the job: its channel closes at EndJob, or at once (after
	// the backlog) when the job has already ended.
	Job string
	// Buffer is the subscriber's bounded channel size (min 1, 0 =
	// 256). When full, the oldest buffered event is dropped.
	Buffer int
	// AfterSeq resumes after a previously seen sequence number: retained
	// events with Seq > AfterSeq replay as Backlog. Zero subscribes
	// live-only, except that a job subscription then replays the job's
	// whole retention.
	AfterSeq uint64
}

func (o SubOptions) matches(e Event) bool {
	return (o.Namespace == "" || o.Namespace == e.Namespace) && (o.Job == "" || o.Job == e.Job)
}

// Subscribe attaches a consumer. On a closed bus, or for a job that has
// ended, the returned channel is already closed (the backlog still
// replays).
func (b *Bus) Subscribe(o SubOptions) Sub {
	if o.Buffer < 1 {
		o.Buffer = 256
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	backlog, truncated, ended := b.backlog(o)
	ch := make(chan Event, o.Buffer)
	if b.closed || ended {
		close(ch)
		return Sub{Backlog: backlog, Truncated: truncated, Ch: ch, Cancel: func() {}}
	}
	id := b.nextID
	b.nextID++
	sub := &subscriber{ch: ch, filter: o}
	b.subs[id] = sub
	mDashSubscribers.With(gaugeLabel(o.Namespace)).Add(1)
	cancel := func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.subs[id] == sub {
			b.detach(id, sub)
		}
	}
	return Sub{Backlog: backlog, Truncated: truncated, Ch: ch, Cancel: cancel}
}

// backlog selects a new subscription's replay and reports whether its
// job has already ended; b.mu must be held.
func (b *Bus) backlog(o SubOptions) (events []Event, truncated, ended bool) {
	after := o.AfterSeq
	if after > b.seq {
		// An id from a previous daemon run (the sequence restarted at 1):
		// everything retained is news to the subscriber.
		after, truncated = 0, true
	}
	// The ring holds the contiguous sequence ending at b.seq.
	src, lost := b.ring, b.seq-uint64(len(b.ring))
	switch {
	case o.Job != "":
		r := b.jobs[jobKey{o.Namespace, o.Job}]
		if r == nil {
			return nil, truncated, false
		}
		src, lost, ended = r.events, r.lost, r.ended
	case o.AfterSeq == 0:
		return nil, false, false
	}
	for _, e := range src {
		if e.Seq > after && o.matches(e) {
			events = append(events, e)
		}
	}
	return events, truncated || after < lost, ended
}

// detach removes and closes one subscription; b.mu must be held.
func (b *Bus) detach(id int, sub *subscriber) {
	delete(b.subs, id)
	close(sub.ch)
	mDashSubscribers.With(gaugeLabel(sub.filter.Namespace)).Add(-1)
}

func gaugeLabel(namespace string) string {
	if namespace == "" {
		return AllNamespaces
	}
	return namespace
}

// Close ends the stream: every subscriber channel closes after its
// buffered events drain, and future Publish/Subscribe calls are
// no-ops (Subscribe still replays what the bus retains).
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, sub := range b.subs {
		b.detach(id, sub)
	}
}
