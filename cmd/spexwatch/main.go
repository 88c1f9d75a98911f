// Command spexwatch attaches a terminal to a remote spexd daemon's
// live event streams: the same per-system progress display the CLI
// drivers render locally (internal/progressui), fed from the daemon's
// Server-Sent Events instead of a campaign callback. No state
// directory, no lock — just an HTTP client on the observability
// surface.
//
//	spexwatch -addr localhost:8476                 # every namespace (GET /v1/events)
//	spexwatch -addr localhost:8476 -ns alpha       # one namespace's stream
//	spexwatch -addr localhost:8476 -job job-000001 # one job (GET /v1/jobs/{id}/events)
//	spexwatch -addr localhost:8476 -ns alpha -job job-000001 -once
//
// Every stream is a filtered slice of the daemon's event bus, framed as
// dash.Event (schema "v":1): lifecycle frames of kind "job", throttled
// "progress" samples, and scheduler, stage and coordinator frames. A
// dropped connection reconnects with exponential backoff, resuming from
// the last SSE event id — the bus sequence number — so the daemon
// replays only what was missed: a job stream from the job's retained
// events, the daemon-wide stream from the bus's ring. -once disables
// reconnection: the command exits when the stream ends, which for a job
// stream is the job's terminal frame (watching an already-finished job
// prints its final state and exits immediately).
//
// Exit status: 0 when the watched job finished done (or the stream was
// ended deliberately), 1 when it failed or was cancelled, 2 on usage
// errors.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spex/internal/dash"
	"spex/internal/progressui"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr = flag.String("addr", "", "spexd address (host:port, required)")
		ns   = flag.String("ns", "", "namespace to watch (default: every namespace)")
		job  = flag.String("job", "", "job ID to watch (default: the whole daemon-wide stream)")
		once = flag.Bool("once", false, "do not reconnect: exit when the stream ends")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "spexwatch: -addr is required (a spexd host:port)")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := options{
		addr:       *addr,
		namespace:  *ns,
		jobID:      *job,
		once:       *once,
		tty:        progressui.IsTerminal(os.Stdout),
		backoffMin: 500 * time.Millisecond,
		backoffMax: 5 * time.Second,
	}
	return watch(ctx, opts, os.Stdout, os.Stderr)
}

// options carries the resolved invocation; tests drive watch directly.
type options struct {
	addr                   string // host:port or full http:// base
	namespace              string // "" = every namespace
	jobID                  string // "" = the daemon-wide bus stream
	once                   bool
	tty                    bool
	backoffMin, backoffMax time.Duration
}

// streamURL builds the SSE endpoint the options address.
func (o options) streamURL() string {
	base := o.addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/") + "/v1"
	if o.namespace != "" && o.namespace != "default" {
		base += "/ns/" + o.namespace
	}
	if o.jobID != "" {
		return base + "/jobs/" + o.jobID + "/events"
	}
	return base + "/events"
}

// terminalState reports a finished job.
func terminalState(s string) bool {
	return s == "done" || s == "failed" || s == "cancelled"
}

// watcher folds SSE frames into the shared progress renderer.
type watcher struct {
	opts     options
	renderer *progressui.Renderer
	errw     io.Writer
	// lastID is the id: of the last dispatched frame, sent back as
	// Last-Event-ID on reconnect so the daemon replays only the gap.
	lastID string
	// finalState is set when the watched job reaches a terminal state
	// (job mode only) — the signal to stop reconnecting.
	finalState string
	sawEvent   bool
}

// watch runs the attach-stream-reconnect loop until the context ends,
// the watched job finishes, or (-once) the stream ends.
func watch(ctx context.Context, opts options, out, errw io.Writer) int {
	w := &watcher{
		opts:     opts,
		renderer: progressui.New(out, opts.tty, "spexwatch"),
		errw:     errw,
	}
	url := opts.streamURL()
	backoff := opts.backoffMin
	for {
		err := w.stream(ctx, url)
		if w.finalState != "" || ctx.Err() != nil || opts.once {
			break
		}
		if err == nil {
			// The daemon ended the stream without a terminal state (e.g.
			// shutdown): treat like a drop and retry until the context ends.
			err = errors.New("stream ended")
		}
		fmt.Fprintf(errw, "spexwatch: %v; reconnecting in %s\n", err, backoff)
		if !sleepCtx(ctx, backoff) {
			break
		}
		backoff *= 2
		if backoff > opts.backoffMax {
			backoff = opts.backoffMax
		}
	}
	w.renderer.Finish()
	switch {
	case w.finalState == "done":
		fmt.Fprintf(errw, "spexwatch: job %s done\n", opts.jobID)
		return 0
	case w.finalState != "":
		fmt.Fprintf(errw, "spexwatch: job %s %s\n", opts.jobID, w.finalState)
		return 1
	}
	return 0
}

// sleepCtx waits d or until ctx ends; it reports whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// stream attaches once and consumes frames until the connection ends.
// A nil return means the server closed the stream (for a job stream,
// normally its terminal state).
func (w *watcher) stream(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if w.lastID != "" {
		req.Header.Set("Last-Event-ID", w.lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}

	// SSE framing: accumulate id:/event:/data: lines, dispatch on the
	// blank line; comment lines (keepalives, truncation notices) are
	// skipped.
	var id, data string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data != "" {
				w.dispatch(id, data)
			}
			id, data = "", ""
		case strings.HasPrefix(line, ":"):
			// comment frame
		case strings.HasPrefix(line, "id:"):
			id = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// dispatch folds one frame into the display.
func (w *watcher) dispatch(id, data string) {
	if id != "" {
		w.lastID = id
	}
	// Unknown fields are ignored, so additive schema growth is harmless;
	// a newer schema version is not ours to interpret.
	var e dash.Event
	if err := json.Unmarshal([]byte(data), &e); err != nil || e.V > dash.SchemaVersion {
		return
	}
	w.sawEvent = true
	switch e.Kind {
	case dash.KindProgress:
		if e.Progress == nil {
			return
		}
		p := *e.Progress
		if w.opts.jobID == "" {
			// Daemon-wide stream: one bar per (namespace, job, system),
			// since many jobs' systems interleave on one display.
			ns := e.Namespace
			if ns == "" {
				ns = "default"
			}
			p.System = ns + "/" + e.Job + "/" + p.System
		}
		w.renderer.Handle(p)
	case dash.KindJob:
		label := e.Job
		if w.opts.jobID == "" && e.Namespace != "" {
			label = e.Namespace + "/" + e.Job
		}
		fmt.Fprintf(w.errw, "spexwatch: %s %s%s\n", label, e.State, errSuffix(e.Error))
		if w.opts.jobID != "" && e.Job == w.opts.jobID && terminalState(e.State) {
			w.finalState = e.State
		}
	}
}

func errSuffix(msg string) string {
	if msg == "" {
		return ""
	}
	return " (" + msg + ")"
}
