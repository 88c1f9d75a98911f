package dash

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spex/internal/shard"
)

func jobEvent(ns, job, state string) Event {
	return Event{Namespace: ns, Kind: KindJob, Job: job, State: state}
}

// drain consumes a subscription until its channel closes.
func drain(sub Sub) []Event {
	out := append([]Event(nil), sub.Backlog...)
	for e := range sub.Ch {
		out = append(out, e)
	}
	return out
}

func TestPublishStampsAndOrders(t *testing.T) {
	b := NewBus(Options{})
	sub := b.Subscribe(SubOptions{})
	for i := 0; i < 5; i++ {
		b.Publish(jobEvent("default", fmt.Sprintf("job-%d", i), "queued"))
	}
	b.Close()
	events := drain(sub)
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, i+1)
		}
		if e.V != SchemaVersion {
			t.Errorf("event %d: schema version %d, want %d", i, e.V, SchemaVersion)
		}
		if e.Time.IsZero() {
			t.Errorf("event %d: zero timestamp", i)
		}
	}
}

func TestNamespaceFilter(t *testing.T) {
	b := NewBus(Options{})
	all := b.Subscribe(SubOptions{})
	only := b.Subscribe(SubOptions{Namespace: "tenant1"})
	b.Publish(jobEvent("default", "job-1", "queued"))
	b.Publish(jobEvent("tenant1", "job-1", "queued"))
	b.Publish(jobEvent("tenant2", "job-1", "queued"))
	b.Close()
	if got := len(drain(all)); got != 3 {
		t.Errorf("unfiltered subscriber got %d events, want 3", got)
	}
	events := drain(only)
	if len(events) != 1 || events[0].Namespace != "tenant1" {
		t.Errorf("tenant1 subscriber got %+v, want exactly the tenant1 event", events)
	}
}

// TestSlowConsumerDropsOldest: a full subscriber loses its oldest
// buffered event, never blocks Publish, and converges on the freshest
// events; drops land on the per-namespace counter.
func TestSlowConsumerDropsOldest(t *testing.T) {
	b := NewBus(Options{})
	before := mDashDropped.With("default").Value()
	slow := b.Subscribe(SubOptions{Buffer: 1})
	const n = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			b.Publish(jobEvent("default", fmt.Sprintf("job-%d", i), "queued"))
		}
		b.Close()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
	events := drain(slow)
	if len(events) == 0 {
		t.Fatal("slow subscriber got nothing")
	}
	last := events[len(events)-1]
	if last.Job != fmt.Sprintf("job-%d", n) {
		t.Errorf("slow subscriber did not converge on the freshest event: got %q", last.Job)
	}
	dropped := mDashDropped.With("default").Value() - before
	if dropped == 0 {
		t.Error("drop counter did not move for a lagging subscriber")
	}
	if int(dropped)+len(events) != n {
		t.Errorf("accounting: %d delivered + %d dropped != %d published", len(events), dropped, n)
	}
}

func TestResumeAfterSeq(t *testing.T) {
	b := NewBus(Options{})
	for i := 1; i <= 5; i++ {
		b.Publish(jobEvent("default", fmt.Sprintf("job-%d", i), "queued"))
	}
	sub := b.Subscribe(SubOptions{AfterSeq: 2})
	if sub.Truncated {
		t.Error("resume within the ring reported truncated")
	}
	if len(sub.Backlog) != 3 || sub.Backlog[0].Seq != 3 {
		t.Fatalf("backlog after seq 2: got %d events starting at seq %d, want 3 starting at 3",
			len(sub.Backlog), sub.Backlog[0].Seq)
	}
	sub.Cancel()
	b.Close()
}

func TestResumePastRingIsTruncated(t *testing.T) {
	b := NewBus(Options{Ring: 2})
	for i := 1; i <= 5; i++ {
		b.Publish(jobEvent("default", fmt.Sprintf("job-%d", i), "queued"))
	}
	sub := b.Subscribe(SubOptions{AfterSeq: 1})
	if !sub.Truncated {
		t.Error("resume past the ring not reported truncated")
	}
	if len(sub.Backlog) != 2 || sub.Backlog[0].Seq != 4 {
		t.Fatalf("backlog: got %d events starting at %d, want the ring's 2 starting at 4",
			len(sub.Backlog), sub.Backlog[0].Seq)
	}
	sub.Cancel()
	b.Close()
}

func TestFoldProgressThrottles(t *testing.T) {
	b := NewBus(Options{ProgressInterval: time.Hour}) // suppress everything mid-flight
	sub := b.Subscribe(SubOptions{})
	for i := 1; i <= 10; i++ {
		b.FoldProgress("default", "job-1", shard.Progress{
			System: "proxyd", SystemDone: i, SystemTotal: 10, Done: i, Total: 20,
		})
	}
	b.Close()
	events := drain(sub)
	// First sample and the system completion always publish; the eight
	// in between fall to the throttle.
	if len(events) != 2 {
		t.Fatalf("got %d progress events, want 2 (first + final): %+v", len(events), events)
	}
	if events[0].Progress.SystemDone != 1 || events[1].Progress.SystemDone != 10 {
		t.Errorf("want first and final samples, got %d and %d",
			events[0].Progress.SystemDone, events[1].Progress.SystemDone)
	}
}

func TestForgetJobClearsThrottleState(t *testing.T) {
	b := NewBus(Options{ProgressInterval: time.Hour})
	b.FoldProgress("default", "job-1", shard.Progress{System: "proxyd", SystemDone: 1, SystemTotal: 10})
	b.EndJob("default", "job-1")
	b.mu.Lock()
	n := len(b.lastEmit)
	b.mu.Unlock()
	if n != 0 {
		t.Errorf("throttle state survived EndJob: %d keys", n)
	}
	b.Close()
}

// TestResumeFromPreviousDaemonRun: the sequence restarts at 1 with the
// bus, so a Last-Event-ID from an earlier run is past b.seq. The resume
// must replay everything retained and say it is truncated, not return
// an empty, complete-looking backlog.
func TestResumeFromPreviousDaemonRun(t *testing.T) {
	b := NewBus(Options{})
	for i := 1; i <= 3; i++ {
		b.Publish(jobEvent("default", fmt.Sprintf("job-%d", i), "queued"))
	}
	sub := b.Subscribe(SubOptions{AfterSeq: 1000})
	if !sub.Truncated {
		t.Error("resume from a previous run's seq not reported truncated")
	}
	if len(sub.Backlog) != 3 || sub.Backlog[0].Seq != 1 {
		t.Fatalf("backlog: got %d events, want the whole ring of 3", len(sub.Backlog))
	}
	job := b.Subscribe(SubOptions{Namespace: "default", Job: "job-2", AfterSeq: 1000})
	if !job.Truncated || len(job.Backlog) != 1 || job.Backlog[0].Job != "job-2" {
		t.Fatalf("job resume from a previous run: truncated=%v backlog=%+v", job.Truncated, job.Backlog)
	}
	sub.Cancel()
	job.Cancel()
	b.Close()
}

// TestJobSubscriptionFollowsOneJob: a job subscription sees only its
// job, replays the job's retention however late it attaches, and ends
// right after the terminal event; later events of the job (the
// scheduler's release) stay out of its history.
func TestJobSubscriptionFollowsOneJob(t *testing.T) {
	b := NewBus(Options{ProgressInterval: time.Hour})
	b.Publish(jobEvent("default", "job-1", "queued"))
	b.Publish(jobEvent("tenant", "job-1", "queued")) // same ID, other namespace
	b.Publish(jobEvent("default", "job-2", "queued"))
	b.FoldProgress("default", "job-1", shard.Progress{System: "proxyd", SystemDone: 1, SystemTotal: 2})

	sub := b.Subscribe(SubOptions{Namespace: "default", Job: "job-1"})
	if len(sub.Backlog) != 2 || sub.Truncated {
		t.Fatalf("late job subscriber: backlog %+v (truncated=%v), want queued + progress", sub.Backlog, sub.Truncated)
	}
	b.Publish(jobEvent("default", "job-2", "running"))
	b.Publish(jobEvent("default", "job-1", "done"))
	b.EndJob("default", "job-1")
	b.Publish(Event{Namespace: "default", Kind: KindSched, Job: "job-1", Sched: &Sched{Op: "release"}})

	var live []Event
	for e := range sub.Ch {
		live = append(live, e)
	}
	if len(live) != 1 || live[0].State != "done" {
		t.Fatalf("live events %+v, want exactly the terminal event before the close", live)
	}

	// After the end: the retention is compacted to the lifecycle, frozen
	// before the release, and a new subscription is already closed.
	after := b.Subscribe(SubOptions{Namespace: "default", Job: "job-1"})
	events := drain(after)
	if len(events) != 2 || events[0].State != "queued" || events[1].State != "done" {
		t.Fatalf("ended job replay %+v, want queued then done", events)
	}
	if !after.Truncated {
		t.Error("replay after compaction not reported truncated")
	}
	resumed := b.Subscribe(SubOptions{Namespace: "default", Job: "job-1", AfterSeq: events[1].Seq})
	if rest := drain(resumed); len(rest) != 0 || resumed.Truncated {
		t.Errorf("resume past the terminal event: %+v (truncated=%v), want nothing", rest, resumed.Truncated)
	}
	b.Close()
}

func TestJobRetentionIsBounded(t *testing.T) {
	b := NewBus(Options{})
	for i := 0; i < jobRetention+2; i++ {
		b.Publish(jobEvent("default", "job-1", "running"))
	}
	sub := b.Subscribe(SubOptions{Namespace: "default", Job: "job-1"})
	if len(sub.Backlog) != jobRetention || sub.Backlog[0].Seq != 3 || !sub.Truncated {
		t.Fatalf("capped retention: %d events from seq %d (truncated=%v), want %d from 3, truncated",
			len(sub.Backlog), sub.Backlog[0].Seq, sub.Truncated, jobRetention)
	}
	sub.Cancel()
	b.Close()
}

// TestConcurrentPublishSubscribe is the -race fan-out test: many
// publishers, subscribers joining and leaving mid-stream, jobs ending
// under their subscribers, progress folding, all concurrent.
func TestConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus(Options{ProgressInterval: time.Millisecond})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ns := fmt.Sprintf("ns%d", p%2)
			for i := 0; i < 200; i++ {
				b.Publish(jobEvent(ns, "job-1", "running"))
				b.FoldProgress(ns, "job-1", shard.Progress{
					System: "proxyd", SystemDone: i, SystemTotal: 200, Done: i, Total: 200,
				})
				if i == 100 {
					b.EndJob(ns, "job-1")
				}
			}
		}(p)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			o := SubOptions{Namespace: fmt.Sprintf("ns%d", s%2), Buffer: 4}
			if s >= 2 {
				o.Job = "job-1"
			}
			sub := b.Subscribe(o)
			for i := 0; i < 50; i++ {
				select {
				case _, open := <-sub.Ch:
					if !open {
						return
					}
				case <-time.After(time.Second):
					return
				}
			}
			sub.Cancel()
		}(s)
	}
	wg.Wait()
	b.Close()
	// Publish and Subscribe after Close are harmless no-ops.
	b.Publish(jobEvent("ns0", "job-2", "queued"))
	sub := b.Subscribe(SubOptions{})
	if _, open := <-sub.Ch; open {
		t.Error("subscription on a closed bus delivered a live event")
	}
}

func TestUIServesEmbeddedAssets(t *testing.T) {
	ts := httptest.NewServer(UI())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/ui/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /ui/: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on the embedded page")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/ui/", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("revalidation: %d, want 304", resp2.StatusCode)
	}

	for _, name := range []string{"app.js", "style.css"} {
		resp, err := http.Get(ts.URL + "/ui/" + name)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /ui/%s: %d", name, resp.StatusCode)
		}
		if resp.Header.Get("ETag") == "" {
			t.Errorf("GET /ui/%s: no ETag", name)
		}
	}

	resp3, err := http.Get(ts.URL + "/ui/nope.js")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("GET /ui/nope.js: %d, want 404", resp3.StatusCode)
	}
}
