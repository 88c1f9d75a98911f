package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeJobStream is an SSE endpoint that drops the first connection
// mid-stream and requires the second to resume with Last-Event-ID.
type fakeJobStream struct {
	mu       sync.Mutex
	conns    int
	resumeID string // Last-Event-ID seen on the second connection
}

func (f *fakeJobStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.conns++
	conn := f.conns
	if conn == 2 {
		f.resumeID = r.Header.Get("Last-Event-ID")
	}
	f.mu.Unlock()
	w.Header().Set("Content-Type", "text/event-stream")
	w.WriteHeader(http.StatusOK)
	fl := w.(http.Flusher)
	emit := func(id int, kind, data string) {
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, kind, data)
		fl.Flush()
	}
	if conn == 1 {
		emit(1, "job", `{"v":1,"seq":1,"namespace":"default","kind":"job","job":"job-000001","state":"running"}`)
		emit(2, "progress", `{"v":1,"seq":2,"namespace":"default","kind":"progress","job":"job-000001","progress":{"system":"proxyd","system_done":3,"system_total":10,"done":3,"total":10}}`)
		// Drop the connection mid-job: no terminal state was sent.
		return
	}
	// The resumed connection carries the rest of the job.
	emit(3, "progress", `{"v":1,"seq":3,"namespace":"default","kind":"progress","job":"job-000001","progress":{"system":"proxyd","system_done":10,"system_total":10,"done":10,"total":10}}`)
	emit(4, "job", `{"v":1,"seq":4,"namespace":"default","kind":"job","job":"job-000001","state":"done"}`)
}

func TestWatchResumesAfterDrop(t *testing.T) {
	f := &fakeJobStream{}
	ts := httptest.NewServer(f)
	defer ts.Close()

	var out, errw strings.Builder
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	code := watch(ctx, options{
		addr:       ts.URL,
		jobID:      "job-000001",
		backoffMin: 10 * time.Millisecond,
		backoffMax: 50 * time.Millisecond,
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("watch exited %d\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	f.mu.Lock()
	conns, resumeID := f.conns, f.resumeID
	f.mu.Unlock()
	if conns != 2 {
		t.Fatalf("watcher made %d connections, want 2 (drop + resume)", conns)
	}
	if resumeID != "2" {
		t.Errorf("resume sent Last-Event-ID %q, want \"2\" (the last dispatched frame)", resumeID)
	}
	if !strings.Contains(out.String(), "spexwatch: 10/10") {
		t.Errorf("final progress line missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "proxyd") {
		t.Errorf("per-system count missing:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "job job-000001 done") {
		t.Errorf("terminal state line missing:\n%s", errw.String())
	}
}

func TestWatchOnceExitsWhenStreamEnds(t *testing.T) {
	// One connection that ends without a terminal state: -once must
	// exit instead of reconnecting.
	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "id: 1\nevent: progress\ndata: {\"v\":1,\"seq\":1,\"kind\":\"progress\",\"job\":\"job-000001\",\"progress\":{\"system\":\"mydb\",\"system_done\":1,\"system_total\":4,\"done\":1,\"total\":4}}\n\n")
	}))
	defer ts.Close()

	var out, errw strings.Builder
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	code := watch(ctx, options{
		addr:       ts.URL,
		jobID:      "job-000001",
		once:       true,
		backoffMin: 10 * time.Millisecond,
		backoffMax: 50 * time.Millisecond,
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("watch -once exited %d", code)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("watch -once made %d connections, want 1", n)
	}
	if !strings.Contains(out.String(), "spexwatch: 1/4 (mydb 1/4)") {
		t.Errorf("progress line missing:\n%s", out.String())
	}
}

func TestWatchFailedJobExitsNonzero(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "id: 1\nevent: job\ndata: {\"v\":1,\"seq\":1,\"kind\":\"job\",\"job\":\"job-000001\",\"state\":\"failed\",\"error\":\"boom\"}\n\n")
	}))
	defer ts.Close()

	var out, errw strings.Builder
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	code := watch(ctx, options{addr: ts.URL, jobID: "job-000001"}, &out, &errw)
	if code != 1 {
		t.Fatalf("watch on a failed job exited %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "boom") {
		t.Errorf("failure message missing:\n%s", errw.String())
	}
}

func TestStreamURL(t *testing.T) {
	cases := []struct {
		opts options
		want string
	}{
		{options{addr: "localhost:8476"}, "http://localhost:8476/v1/events"},
		{options{addr: "localhost:8476", namespace: "alpha"}, "http://localhost:8476/v1/ns/alpha/events"},
		{options{addr: "localhost:8476", namespace: "default"}, "http://localhost:8476/v1/events"},
		{options{addr: "http://h:1/", jobID: "job-000007"}, "http://h:1/v1/jobs/job-000007/events"},
		{options{addr: "h:1", namespace: "alpha", jobID: "job-000007"}, "http://h:1/v1/ns/alpha/jobs/job-000007/events"},
	}
	for _, c := range cases {
		if got := c.opts.streamURL(); got != c.want {
			t.Errorf("streamURL(%+v) = %q, want %q", c.opts, got, c.want)
		}
	}
}
