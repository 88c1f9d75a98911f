package progressui

import (
	"bytes"
	"strings"
	"testing"

	"spex/internal/shard"
)

func TestTTYRendererDrawsPerSystemBars(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf, true, "spexinj")
	// First event renders; the second system's first event forces a
	// render; the final aggregate event forces a render.
	r.Handle(shard.Progress{System: "proxyd", SystemDone: 1, SystemTotal: 2, Done: 1, Total: 4})
	r.Handle(shard.Progress{System: "mydb", SystemDone: 1, SystemTotal: 2, Done: 2, Total: 4})
	r.Handle(shard.Progress{System: "proxyd", SystemDone: 2, SystemTotal: 2, Done: 3, Total: 4})
	r.Handle(shard.Progress{System: "mydb", SystemDone: 2, SystemTotal: 2, Done: 4, Total: 4})
	r.Finish()
	out := buf.String()
	for _, want := range []string{
		"spexinj: 4/4",
		"proxyd [########################] 2/2",
		"mydb   [########################] 2/2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("TTY output missing %q:\n%q", want, out)
		}
	}
	// Re-renders must move the cursor back over the block.
	if !strings.Contains(out, "\x1b[3A") {
		t.Errorf("TTY output never rewrote the 3-line block in place:\n%q", out)
	}
	// A half-done bar appeared before the full one.
	if !strings.Contains(out, "[############------------] 1/2") {
		t.Errorf("TTY output missing the half-done bar:\n%q", out)
	}
}

func TestNonTTYRendererFallsBackToAggregateLines(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf, false, "spexeval")
	r.Handle(shard.Progress{System: "proxyd", SystemDone: 1, SystemTotal: 3, Done: 1, Total: 3})
	r.Handle(shard.Progress{System: "proxyd", SystemDone: 2, SystemTotal: 3, Done: 2, Total: 3}) // throttled
	r.Handle(shard.Progress{System: "proxyd", SystemDone: 3, SystemTotal: 3, Done: 3, Total: 3}) // final: forced
	r.Finish()
	out := buf.String()
	if strings.Contains(out, "\x1b[") || strings.Contains(out, "\r") {
		t.Errorf("non-TTY output contains terminal control sequences:\n%q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("non-TTY renderer printed %d lines, want 2 (first + final):\n%q", len(lines), out)
	}
	if lines[0] != "spexeval: 1/3 (proxyd 1/3)" {
		t.Errorf("first line = %q", lines[0])
	}
	if lines[1] != "spexeval: 3/3 (proxyd 3/3)" {
		t.Errorf("final line = %q", lines[1])
	}
}

func TestRendererToleratesDroppedEvents(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf, false, "spexinj")
	// A throttled or lossy stream can drop intermediate events: the
	// renderer must converge on the freshest counts it sees, never
	// regress.
	r.Handle(shard.Progress{System: "a", SystemDone: 5, SystemTotal: 9, Done: 5, Total: 9})
	r.Handle(shard.Progress{System: "a", SystemDone: 3, SystemTotal: 9, Done: 3, Total: 9}) // stale straggler
	r.Handle(shard.Progress{System: "a", SystemDone: 9, SystemTotal: 9, Done: 9, Total: 9})
	r.Finish()
	if strings.Contains(buf.String(), "spexinj: 3/9") {
		t.Errorf("renderer regressed to a stale count:\n%q", buf.String())
	}
	if !strings.Contains(buf.String(), "spexinj: 9/9 (a 9/9)") {
		t.Errorf("renderer never reached the final count:\n%q", buf.String())
	}
}
