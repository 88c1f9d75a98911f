package engine

import (
	"context"
	"testing"
)

// TestRunRecordsMetrics drives the pool hard enough that every worker
// updates the process-global registry concurrently (the -race suite
// exercises the registry's atomics), then checks the deltas. All
// assertions are >= deltas: the registry is process-global and other
// shuffled tests run engine pools too.
func TestRunRecordsMetrics(t *testing.T) {
	const n = 64
	before := struct {
		tasks, observed uint64
	}{mTasks.Value(), mTaskSeconds.Count()}

	results, err := Run(context.Background(), n, 8, func(ctx context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results", len(results))
	}

	if d := mTasks.Value() - before.tasks; d < n {
		t.Errorf("executed-tasks delta = %d, want >= %d", d, n)
	}
	if d := mTaskSeconds.Count() - before.observed; d < n {
		t.Errorf("latency observations delta = %d, want >= %d", d, n)
	}
	if got := mQueueDepth.Value(); got != 0 {
		// The queue gauge must balance to zero once no pool is running...
		// except other parallel tests may hold tasks in flight; only a
		// negative reading is unconditionally a bug.
		if got < 0 {
			t.Errorf("queue depth gauge went negative: %v", got)
		}
	}
	elapsed := 0
	for _, r := range results {
		if r.Elapsed > 0 {
			elapsed++
		}
	}
	if elapsed != n {
		t.Errorf("Elapsed populated for %d/%d executed results", elapsed, n)
	}
}
