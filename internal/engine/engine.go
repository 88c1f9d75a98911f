// Package engine is the concurrent campaign scheduler shared by the
// injection harness (internal/inject), the global cross-target
// scheduler (internal/shard), and the inference drivers
// (internal/spex, internal/report, cmd/...). It runs a fixed set of
// indexed tasks on a bounded worker pool with three guarantees the
// campaign layers rely on:
//
//   - Determinism: results come back indexed by input position, so a
//     parallel campaign reassembles into the exact report a sequential
//     run produces.
//   - Cancellation: a cancelled context stops dispatching immediately;
//     tasks already in flight finish and their results are kept, cached
//     results are still replayed, and tasks never started carry the
//     context error (marked Skipped).
//   - Incrementality: an optional keyed Cache replays previously
//     recorded results instead of re-executing the task — the basis of
//     SPEX-INJ's incremental retesting mode (paper §3.1) in
//     inject.RunContext. The global scheduler resolves its replays
//     before the pool starts and hands the engine only fresh tasks.
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
	// Cached reports that Value was replayed from the cache.
	Cached bool
	// Elapsed is the task's wall-clock execution time. Zero for cached
	// and skipped results — replays cost nothing by construction.
	Elapsed time.Duration
	// Skipped reports that the scheduler never started the task: the run
	// was cancelled before the task was dispatched. Err carries the
	// context error. Tasks that were already in flight when the context
	// was cancelled are not Skipped — they ran, even if they returned
	// early with the context error.
	Skipped bool
}

// Options tune one Run.
type Options[T any] struct {
	// Workers bounds parallelism. The zero value picks a hardware-sized
	// pool (DefaultWorkers); negative values run sequentially through a
	// single worker, as does Workers == 1.
	Workers int
	// OnResult, if set, streams every result as it completes (completion
	// order, not input order). Calls are serialized by the scheduler, so
	// the callback needs no locking of its own.
	OnResult func(Result[T])
	// Cache, if set together with KeyOf, replays recorded results for
	// tasks whose key is present and records successful results for
	// tasks that ran.
	Cache *Cache[T]
	// KeyOf returns the cache key for task i. An empty key bypasses the
	// cache (the task always executes and is never recorded).
	KeyOf func(i int) string
}

// DefaultWorkers is the pool size used when Options.Workers is 0: one
// worker per CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Run executes n tasks through a bounded worker pool and returns their
// results in input order. fn receives the run context and the task index.
// Run returns ctx.Err() if the context was cancelled before every task
// finished; the result slice is still fully populated (unstarted tasks
// carry the context error).
func Run[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error), opts Options[T]) ([]Result[T], error) {
	if opts.Workers == 0 {
		opts.Workers = DefaultWorkers()
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Workers > n {
		opts.Workers = n
	}
	results := make([]Result[T], n)
	if n == 0 {
		return results, ctx.Err()
	}
	mQueueDepth.Add(float64(n))

	var (
		emitMu sync.Mutex
		wg     sync.WaitGroup
	)
	emit := func(r Result[T]) {
		results[r.Index] = r
		if opts.OnResult != nil {
			emitMu.Lock()
			opts.OnResult(r)
			emitMu.Unlock()
		}
	}

	indices := make(chan int)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				key := ""
				if opts.Cache != nil && opts.KeyOf != nil {
					key = opts.KeyOf(i)
					if key != "" {
						if v, ok := opts.Cache.Get(key); ok {
							mCacheHits.Inc()
							emit(Result[T]{Index: i, Value: v, Cached: true})
							continue
						}
						mCacheMisses.Inc()
					}
				}
				mBusyWorkers.Add(1)
				start := time.Now()
				v, err := fn(ctx, i)
				elapsed := time.Since(start)
				mBusyWorkers.Add(-1)
				mTasks.Inc()
				mTaskSeconds.Observe(elapsed.Seconds())
				if err == nil && key != "" {
					opts.Cache.Put(key, v)
				}
				emit(Result[T]{Index: i, Value: v, Err: err, Elapsed: elapsed})
			}
		}()
	}

	// flush handles every index from from onward that was never
	// dispatched because the run was cancelled: cached results are still
	// served — a replay costs nothing, so cancellation only skips tasks
	// that would have had to execute.
	flush := func(from int) {
		for j := from; j < n; j++ {
			mQueueDepth.Add(-1)
			if opts.Cache != nil && opts.KeyOf != nil {
				if key := opts.KeyOf(j); key != "" {
					if v, ok := opts.Cache.Get(key); ok {
						mCacheHits.Inc()
						emit(Result[T]{Index: j, Value: v, Cached: true})
						continue
					}
				}
			}
			emit(Result[T]{Index: j, Err: ctx.Err(), Skipped: true})
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

// Cache is a concurrency-safe keyed result store. The injection layer
// keys it by misconfiguration identity (violated-constraint ID + rule +
// injected values) so that an unchanged constraint replays its recorded
// outcome across campaign runs.
type Cache[T any] struct {
	mu sync.RWMutex
	m  map[string]T
}

// NewCache returns an empty cache.
func NewCache[T any]() *Cache[T] {
	return &Cache[T]{m: make(map[string]T)}
}

// Get returns the cached value for key, if present.
func (c *Cache[T]) Get(key string) (T, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.m[key]
	return v, ok
}

// Put records a value under key, replacing any previous entry.
func (c *Cache[T]) Put(key string, v T) {
	c.mu.Lock()
	c.m[key] = v
	c.mu.Unlock()
}

// Delete removes key from the cache (used to force re-execution of
// entries an incremental delta invalidated).
func (c *Cache[T]) Delete(key string) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}

// Retain drops every entry whose key is not in keep, returning the
// number of entries dropped (stale results from removed constraints).
func (c *Cache[T]) Retain(keep map[string]bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for k := range c.m {
		if !keep[k] {
			delete(c.m, k)
			dropped++
		}
	}
	return dropped
}

// Len returns the number of cached entries.
func (c *Cache[T]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Snapshot copies the cache contents into a plain map, the export half
// of cache persistence (internal/campaignstore). The copy is taken under
// the read lock, so it is a consistent point-in-time view; concurrent
// Put calls are not reflected in it.
func (c *Cache[T]) Snapshot() map[string]T {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]T, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// LoadSnapshot replaces the cache contents with entries, the import half
// of cache persistence. The map is copied, so the caller may keep
// mutating its own copy afterwards.
func (c *Cache[T]) LoadSnapshot(entries map[string]T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[string]T, len(entries))
	for k, v := range entries {
		c.m[k] = v
	}
}
