package main

import (
	"context"
	"sync"
	"time"
)

// sample is one operation the load generator issued.
type sample struct {
	// kind names the operation: "job.cold", "job.warm", or a read's
	// endpoint (readReq.kind).
	kind string
	// due is when the schedule wanted the operation sent, sent when a
	// connection actually sent it, done when it completed. For a closed
	// loop due == sent.
	due, sent, done time.Time
	// lag is how late the generator itself ran: for an open loop, from
	// due until it handed the operation to a connection; for a closed
	// loop, from the previous operation's completion until this send.
	lag time.Duration
	err error
	// Jobs only: the POST round trip and the SSE frames received.
	post   time.Duration
	events int
}

// latency is the operation's latency as its user saw it: from when it
// was due, so a stall also charges the wait it imposed on later
// operations.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// service is the time the operation spent on its connection.
func (s sample) service() time.Duration { return s.done.Sub(s.sent) }

// closedLoop issues operations on one client, each only after the
// previous one returned. n bounds how many (0: no bound); period, when
// set, spaces their starts at least that far apart.
type closedLoop struct {
	n      int
	period time.Duration
}

// run issues operations until n are done, the deadline passes, or ctx
// ends, and returns them all completed. do fills in the sample's kind
// and error, and may set done itself when the operation ends before do
// returns.
func (l closedLoop) run(ctx context.Context, until time.Time, do func(ctx context.Context, s *sample)) []sample {
	var out []sample
	var ready time.Time // when the next operation is due
	for (l.n == 0 || len(out) < l.n) && time.Now().Before(until) {
		if wait := time.Until(ready); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		now := time.Now()
		s := sample{due: now, sent: now}
		if !ready.IsZero() {
			s.lag = now.Sub(ready)
		}
		do(ctx, &s)
		if s.done.IsZero() {
			s.done = time.Now()
		}
		ready = time.Now()
		if next := now.Add(l.period); next.After(ready) {
			ready = next
		}
		out = append(out, s)
	}
	return out
}

// openLoop issues operations on a fixed schedule, whatever the system's
// speed: operation i is due at start + i/rate and is handed to the first
// free of conns connections. A slow response delays the operations
// queued behind it, and their latency, timed from the due time, shows
// it.
type openLoop struct {
	rate  float64
	conns int
	// sleepUntil blocks until t; tests replace it to make the generator
	// run late.
	sleepUntil func(t time.Time)
}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// run issues operations 0..n-1 starting at start and returns their
// samples in issue order once all have completed. do performs operation
// i and fills in the sample's kind and error.
func (l openLoop) run(ctx context.Context, n int, start time.Time, do func(ctx context.Context, i int, s *sample)) []sample {
	out := make([]sample, n)
	// Sized to every send, so the generator never blocks on a busy
	// system and its schedule stays independent of the responses.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &out[i]
				s.sent = time.Now()
				do(ctx, i, s)
				s.done = time.Now()
			}
		}()
	}
	interval := float64(time.Second) / l.rate
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		l.sleepUntil(due)
		out[i].due = due
		out[i].lag = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	if ctx.Err() != nil {
		// Operations never issued carry no timestamps; drop them.
		issued := out[:0]
		for _, s := range out {
			if !s.due.IsZero() {
				issued = append(issued, s)
			}
		}
		out = issued
	}
	return out
}
