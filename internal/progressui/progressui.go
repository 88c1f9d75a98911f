// Package progressui renders the campaign progress stream
// (shard.Progress, straight off a campaign's OnProgress callback or a
// daemon's event stream) for a terminal or a log. It is the one renderer behind `spexinj
// -progress` and `spexeval -progress`, so the two drivers cannot drift:
//
//   - On a terminal (a character device — the same detection the
//     drivers have used since the one-line \r renderer) it draws a
//     full multi-line display: one bar per target system plus an
//     aggregate header, rewritten in place with ANSI cursor movement.
//     Systems appear as their first outcome completes, so the renderer
//     needs no up-front workload inventory.
//   - Anywhere else (CI logs, file redirects) in-place rewriting would
//     smear every update into a separate garbled line, so it falls
//     back to the established one-line aggregate: the first event,
//     then at most one line per second, then the final count.
package progressui

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"spex/internal/shard"
)

// IsTerminal reports whether f is a character device — the TTY test
// deciding between the bar display and line-oriented output.
func IsTerminal(f *os.File) bool {
	fi, err := f.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// barWidth is the fill width of one per-system bar.
const barWidth = 24

// Renderer consumes Progress events and renders them to one writer.
// It is not safe for concurrent use; feed it from a single goroutine
// or under a lock, as Attach does.
type Renderer struct {
	w      io.Writer
	tty    bool
	prefix string

	order   []string       // systems in first-seen order
	done    map[string]int // freshest per-system done count
	total   map[string]int // per-system campaign size
	aggDone int
	aggTot  int

	lines    int // lines of the previous TTY render (to rewrite over)
	dirty    bool
	last     time.Time
	throttle time.Duration
}

// New returns a renderer writing to w. tty selects the multi-line bar
// display; prefix labels the output (e.g. "spexinj"). Use NewAuto to
// derive tty from the output file itself.
func New(w io.Writer, tty bool, prefix string) *Renderer {
	throttle := time.Second // non-TTY: at most one line per second
	if tty {
		throttle = 50 * time.Millisecond // smooth but not busy
	}
	return &Renderer{w: w, tty: tty, prefix: prefix,
		done: make(map[string]int), total: make(map[string]int), throttle: throttle}
}

// NewAuto returns a renderer for f with TTY detection applied.
func NewAuto(f *os.File, prefix string) *Renderer {
	return New(f, IsTerminal(f), prefix)
}

// Attach is the whole CLI-side wiring: it returns an emit function
// that feeds a renderer for f (plug it into shard.Options.OnProgress)
// plus a finish function that completes the display. Emit renders in
// the caller under a mutex; the renderer's own throttle bounds how
// often that writes to f.
func Attach(f *os.File, prefix string) (emit func(shard.Progress), finish func()) {
	r := NewAuto(f, prefix)
	var mu sync.Mutex
	return func(p shard.Progress) {
			mu.Lock()
			defer mu.Unlock()
			r.Handle(p)
		}, func() {
			mu.Lock()
			defer mu.Unlock()
			r.Finish()
		}
}

// Handle folds one progress event into the display. Yields and
// failures still advance nothing (their SystemDone reflects the
// scheduler's count either way); the renderer just tracks the freshest
// numbers, so events a throttled or lossy stream dropped are harmless.
func (r *Renderer) Handle(p shard.Progress) {
	fresh := false
	if _, ok := r.total[p.System]; !ok {
		r.order = append(r.order, p.System)
		fresh = true
	}
	if p.SystemDone > r.done[p.System] {
		r.done[p.System] = p.SystemDone
	}
	r.total[p.System] = p.SystemTotal
	if p.Done > r.aggDone {
		r.aggDone = p.Done
	}
	r.aggTot = p.Total
	r.dirty = true

	final := p.Done == p.Total
	if fresh || final || r.last.IsZero() || time.Since(r.last) >= r.throttle {
		r.render()
	}
}

// Finish flushes the final state. On a TTY the display block already
// ends in a newline; otherwise the last aggregate line is printed if
// it never made it past the throttle.
func (r *Renderer) Finish() {
	if r.dirty {
		r.render()
	}
}

func (r *Renderer) render() {
	r.last = time.Now()
	r.dirty = false
	if !r.tty {
		fmt.Fprintln(r.w, r.aggregateLine())
		return
	}
	var b strings.Builder
	if r.lines > 0 {
		// Rewrite over the previous block: cursor up, then erase each
		// line as it is redrawn (the block only ever grows).
		fmt.Fprintf(&b, "\x1b[%dA", r.lines)
	}
	lines := r.barLines()
	for _, l := range lines {
		b.WriteString("\r\x1b[2K")
		b.WriteString(l)
		b.WriteByte('\n')
	}
	r.lines = len(lines)
	io.WriteString(r.w, b.String())
}

// aggregateLine is the non-TTY format, unchanged from the drivers'
// original one-line renderer: aggregate done/total plus every
// seen system's own count.
func (r *Renderer) aggregateLine() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d/%d", r.prefix, r.aggDone, r.aggTot)
	sep := " ("
	for _, name := range r.order {
		fmt.Fprintf(&b, "%s%s %d/%d", sep, name, r.done[name], r.total[name])
		sep = ", "
	}
	if sep == ", " {
		b.WriteString(")")
	}
	return b.String()
}

// barLines is the TTY display: aggregate header, then one bar per
// system in first-seen order.
func (r *Renderer) barLines() []string {
	lines := make([]string, 0, len(r.order)+1)
	lines = append(lines, fmt.Sprintf("%s: %d/%d", r.prefix, r.aggDone, r.aggTot))
	width := 0
	for _, name := range r.order {
		if len(name) > width {
			width = len(name)
		}
	}
	for _, name := range r.order {
		lines = append(lines, fmt.Sprintf("  %-*s %s %d/%d",
			width, name, bar(r.done[name], r.total[name]), r.done[name], r.total[name]))
	}
	return lines
}

// bar renders a fixed-width fill bar.
func bar(done, total int) string {
	fill := 0
	if total > 0 {
		fill = done * barWidth / total
	}
	if fill > barWidth {
		fill = barWidth
	}
	return "[" + strings.Repeat("#", fill) + strings.Repeat("-", barWidth-fill) + "]"
}
