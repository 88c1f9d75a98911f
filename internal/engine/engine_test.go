package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunPreservesInputOrder(t *testing.T) {
	n := 100
	rs, err := Run(context.Background(), n, 8, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Index != i || r.Value != i*i || r.Err != nil {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

func TestRunSequentialEqualsParallel(t *testing.T) {
	fn := func(_ context.Context, i int) (string, error) {
		return fmt.Sprintf("task-%03d", i), nil
	}
	seq, err := Run(context.Background(), 50, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), 50, 7, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		// Elapsed is wall-clock noise by definition; everything else
		// must be deterministic.
		seq[i].Elapsed, par[i].Elapsed = 0, 0
		if seq[i] != par[i] {
			t.Fatalf("result %d differs: sequential %+v, parallel %+v", i, seq[i], par[i])
		}
	}
}

func TestRunBoundsParallelism(t *testing.T) {
	var cur, peak atomic.Int32
	_, err := Run(context.Background(), 64, 4, func(_ context.Context, _ int) (struct{}, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("observed %d concurrent tasks, worker bound is 4", p)
	}
}

func TestRunRecordsPerTaskErrors(t *testing.T) {
	boom := errors.New("boom")
	rs, err := Run(context.Background(), 10, 3, func(_ context.Context, i int) (int, error) {
		if i%3 == 0 {
			return 0, boom
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		wantErr := i%3 == 0
		if (r.Err != nil) != wantErr {
			t.Fatalf("task %d err = %v, want error: %v", i, r.Err, wantErr)
		}
	}
	if _, errIdx := Values(rs); len(errIdx) != 4 {
		t.Fatalf("Values reported %d errored tasks, want 4", len(errIdx))
	}
	if got := FirstError(rs); got != boom {
		t.Fatalf("FirstError = %v, want %v", got, boom)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	rs, err := Run(ctx, 100, 2, func(ctx context.Context, i int) (int, error) {
		if started.Add(1) == 2 {
			cancel()
		}
		// Every task waits for the cancellation, so only the tasks in
		// flight when it lands (and a dispatch racing it) run.
		<-ctx.Done()
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var ran, cancelled int
	for _, r := range rs {
		if r.Err == nil {
			ran++
		} else if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if ran == 0 || cancelled == 0 || ran+cancelled != 100 {
		t.Fatalf("ran=%d cancelled=%d, want a partial run covering all 100", ran, cancelled)
	}
}

func TestRunMarksNeverStartedAsSkipped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rs, err := Run(ctx, 50, 1, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			cancel()
		}
		<-ctx.Done()
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var ran, skipped int
	for _, r := range rs {
		switch {
		case r.Skipped:
			skipped++
			if r.Err == nil {
				t.Fatalf("skipped result %d carries no error", r.Index)
			}
		case r.Err == nil:
			ran++
		}
	}
	if ran == 0 || skipped == 0 || ran+skipped != 50 {
		t.Fatalf("ran=%d skipped=%d, want every unstarted task marked skipped", ran, skipped)
	}
}

func TestWorkersZeroUsesDefaultPool(t *testing.T) {
	if DefaultWorkers() < 2 {
		t.Skip("needs >= 2 CPUs to observe parallelism")
	}
	// Two tasks that rendezvous with each other can only finish if the
	// zero value really maps to a multi-worker pool; a single worker
	// would run them one after the other and time out.
	meet := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), 2, 0, func(_ context.Context, i int) (int, error) {
			select {
			case meet <- struct{}{}:
			case <-meet:
			case <-time.After(5 * time.Second):
				return 0, errors.New("rendezvous timed out: tasks did not overlap")
			}
			return i, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run with Workers == 0 did not finish: pool is not parallel")
	}
}
