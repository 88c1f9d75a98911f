// Package engine is the bounded worker pool shared by the campaign
// scheduler (internal/shard), the reference campaign run
// (inject.RunContext), and the inference drivers (internal/spex,
// internal/report, cmd/...). It runs a fixed set of indexed tasks with
// two guarantees the campaign layers rely on:
//
//   - Determinism: results come back indexed by input position, so a
//     parallel campaign reassembles into the exact report a sequential
//     run produces.
//   - Cancellation: a cancelled context stops dispatching immediately;
//     tasks already in flight finish and their results are kept, and
//     tasks never started carry the context error (marked Skipped).
//
// Replaying recorded outcomes is the campaign layer's job, not the
// pool's: shard.CampaignAll resolves every replay before the pool
// starts and hands it only the tasks that must execute.
package engine

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Result is the outcome of one task.
type Result[T any] struct {
	// Index is the task's position in the input order.
	Index int
	Value T
	// Err is the task's own error, or the context error for tasks the
	// scheduler never started.
	Err error
	// Elapsed is the task's wall-clock execution time. Zero for skipped
	// results.
	Elapsed time.Duration
	// Skipped reports that the scheduler never started the task: the run
	// was cancelled before the task was dispatched. Err carries the
	// context error. Tasks that were already in flight when the context
	// was cancelled are not Skipped — they ran, even if they returned
	// early with the context error.
	Skipped bool
}

// DefaultWorkers is the pool size Run uses when workers is 0: one worker
// per CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Run executes n tasks through a pool of at most workers goroutines and
// returns their results in input order. Zero workers picks a
// hardware-sized pool (DefaultWorkers); one or a negative count runs the
// tasks one at a time. fn receives the run context and the task index.
// Run returns ctx.Err() if the context was cancelled before every task
// finished; the result slice is still fully populated (unstarted tasks
// carry the context error).
func Run[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]Result[T], error) {
	if workers == 0 {
		workers = DefaultWorkers()
	}
	workers = max(1, min(workers, n))
	results := make([]Result[T], n)
	if n == 0 {
		return results, ctx.Err()
	}
	mQueueDepth.Add(float64(n))

	var wg sync.WaitGroup
	indices := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				mBusyWorkers.Add(1)
				start := time.Now()
				v, err := fn(ctx, i)
				elapsed := time.Since(start)
				mBusyWorkers.Add(-1)
				mTasks.Inc()
				mTaskSeconds.Observe(elapsed.Seconds())
				results[i] = Result[T]{Index: i, Value: v, Err: err, Elapsed: elapsed}
			}
		}()
	}

	// flush marks every index from from onward as skipped: the run was
	// cancelled before dispatching it.
	flush := func(from int) {
		for j := from; j < n; j++ {
			mQueueDepth.Add(-1)
			results[j] = Result[T]{Index: j, Err: ctx.Err(), Skipped: true}
		}
	}

dispatch:
	for i := 0; i < n; i++ {
		// Check cancellation with priority: a ready worker must not win
		// the race against an already-cancelled context.
		select {
		case <-ctx.Done():
			flush(i)
			break dispatch
		default:
		}
		select {
		case indices <- i: // the current index i was sent
			mQueueDepth.Add(-1)
		case <-ctx.Done():
			flush(i)
			break dispatch
		}
	}
	close(indices)
	wg.Wait()
	return results, ctx.Err()
}

// Values unwraps a result slice into its values, in input order. The
// second return lists the indices whose tasks errored.
func Values[T any](rs []Result[T]) ([]T, []int) {
	out := make([]T, len(rs))
	var errs []int
	for i, r := range rs {
		out[i] = r.Value
		if r.Err != nil {
			errs = append(errs, i)
		}
	}
	return out, errs
}

// FirstError returns the first error in input order, or nil.
func FirstError[T any](rs []Result[T]) error {
	for _, r := range rs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
