// Pool metrics: every Run feeds the process-global obs registry so
// spexd's /metrics (and the CLIs' -metrics-out dumps) expose scheduler
// behavior — queue depth, pool utilization and per-task latency.
package engine

import "spex/internal/obs"

const (
	metricTasks       = "spex_engine_tasks_total"
	metricTaskSeconds = "spex_engine_task_seconds"
	metricQueueDepth  = "spex_engine_queue_depth"
	metricBusyWorkers = "spex_engine_workers_busy"
)

var (
	mTasks       = obs.Default().Counter(metricTasks, "tasks executed by the worker pool")
	mTaskSeconds = obs.Default().Histogram(metricTaskSeconds, "wall-clock seconds per executed task", obs.DurationBuckets)
	mQueueDepth  = obs.Default().Gauge(metricQueueDepth, "tasks accepted by Run but not yet dispatched or flushed")
	mBusyWorkers = obs.Default().Gauge(metricBusyWorkers, "workers currently executing a task")
)
