package main

import (
	"context"
	"testing"
	"time"
)

// A slow response delays the operations queued behind it on the same
// connection, and their latency, timed from the due time, includes
// that wait even though their own service time is short.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 30 * time.Millisecond
	l := openLoop{rate: 1000, conns: 1, sleepUntil: sleepUntil}
	samples := l.run(context.Background(), 10, time.Now(), func(_ context.Context, i int, s *sample) {
		s.kind = "read"
		if i == 0 {
			time.Sleep(stall)
		}
	})
	if len(samples) != 10 {
		t.Fatalf("got %d samples, want 10", len(samples))
	}
	for i, s := range samples {
		if s.sent.Before(s.due) || s.done.Before(s.sent) {
			t.Fatalf("sample %d: due %v sent %v done %v out of order", i, s.due, s.sent, s.done)
		}
	}
	// Operation 1 was due 1ms after operation 0 but waited for it.
	s := samples[1]
	if s.latency() < stall-2*time.Millisecond {
		t.Errorf("queued operation's latency %v does not include the %v stall ahead of it", s.latency(), stall)
	}
	if s.service() > s.latency()/2 {
		t.Errorf("queued operation's service time %v should be a small part of its latency %v", s.service(), s.latency())
	}
}

// When the generator itself runs late, the lateness shows as lag and
// is still charged to the operation's latency.
func TestOpenLoopChargesGeneratorLag(t *testing.T) {
	const late = 25 * time.Millisecond
	start := time.Now()
	calls := 0
	l := openLoop{rate: 1000, conns: 2, sleepUntil: func(due time.Time) {
		calls++
		if calls == 4 { // operation 3
			due = due.Add(late)
		}
		sleepUntil(due)
	}}
	samples := l.run(context.Background(), 6, start, func(context.Context, int, *sample) {})
	s := samples[3]
	if !s.due.Equal(start.Add(3 * time.Millisecond)) {
		t.Fatalf("operation 3 due at +%v, want +3ms", s.due.Sub(start))
	}
	if s.lag < late {
		t.Errorf("generator lag %v, want at least %v", s.lag, late)
	}
	if s.latency() < late {
		t.Errorf("latency %v does not include the generator's %v lag", s.latency(), late)
	}
	if samples[0].lag >= late {
		t.Errorf("operation 0 lag %v, want it on time", samples[0].lag)
	}
}

// A closed loop sends each operation when the previous one returns, so
// latency runs from the send, and an operation may end its own timing
// before its follow-up work.
func TestClosedLoopTimesFromSend(t *testing.T) {
	until := time.Now().Add(20 * time.Millisecond)
	samples := closedLoop{}.run(context.Background(), until, func(_ context.Context, s *sample) {
		time.Sleep(2 * time.Millisecond)
		s.done = time.Now()
		time.Sleep(3 * time.Millisecond) // follow-up, not timed
	})
	if len(samples) < 2 {
		t.Fatalf("got %d samples, want several", len(samples))
	}
	for i, s := range samples {
		if !s.due.Equal(s.sent) {
			t.Errorf("sample %d: due %v != sent %v", i, s.due, s.sent)
		}
		if l := s.latency(); l < 2*time.Millisecond {
			t.Errorf("sample %d: latency %v, want at least the 2ms timed part", i, l)
		}
		if i > 0 && samples[i].sent.Sub(samples[i-1].done) < 3*time.Millisecond {
			t.Errorf("sample %d sent before the previous operation's follow-up finished", i)
		}
	}
}

// A quota stops the loop after n operations, and a period spaces their
// starts even when each returns at once.
func TestClosedLoopQuotaAndPeriod(t *testing.T) {
	const period = 5 * time.Millisecond
	l := closedLoop{n: 4, period: period}
	samples := l.run(context.Background(), time.Now().Add(time.Minute), func(context.Context, *sample) {})
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want the quota of 4", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if gap := samples[i].sent.Sub(samples[i-1].sent); gap < period {
			t.Errorf("operations %d and %d started %v apart, want at least %v", i-1, i, gap, period)
		}
	}
}
