// Daemon metrics: per-endpoint HTTP traffic and latency, ETag
// revalidation hits, the tables cache, job lifecycle counts and
// durations, and SSE keepalive frames all feed the obs registry the
// daemon itself serves at GET /metrics. The outcome-index cache and
// its spex_server_index_cache_* families live in campaignstore.
package server

import "spex/internal/obs"

const (
	metricHTTPRequests   = "spex_http_requests_total"
	metricHTTPSeconds    = "spex_http_request_seconds"
	metricEtagChecks     = "spex_http_etag_checks_total"
	metricEtag304        = "spex_http_etag_304_total"
	metricTablesHits     = "spex_server_tables_cache_hits_total"
	metricTablesRebuilds = "spex_server_tables_cache_rebuilds_total"
	metricJobsByState    = "spex_jobs_total"
	metricJobSeconds     = "spex_job_seconds"
	metricSSEKeepalives  = "spex_sse_keepalives_total"
	metricQueueDepth     = "spex_server_queue_depth"
	metricJobsRunning    = "spex_server_jobs_running"
	metricLockWait       = "spex_server_lock_wait_seconds"
)

var (
	mHTTPRequests = obs.Default().CounterVec(metricHTTPRequests,
		"HTTP requests served, by endpoint and status code", "endpoint", "code")
	mHTTPSeconds = obs.Default().HistogramVec(metricHTTPSeconds,
		"HTTP request latency in seconds, by endpoint", obs.DurationBuckets, "endpoint")
	mEtagChecks = obs.Default().Counter(metricEtagChecks,
		"conditional requests carrying If-None-Match")
	mEtag304 = obs.Default().Counter(metricEtag304,
		"conditional requests answered 304 Not Modified")
	mTablesHits = obs.Default().Counter(metricTablesHits,
		"table requests served from the memoized replay analysis")
	mTablesRebuilds = obs.Default().Counter(metricTablesRebuilds,
		"table requests that recomputed the replay analysis")
	mJobsByState = obs.Default().CounterVec(metricJobsByState,
		"job lifecycle transitions, by state entered and namespace", "state", "namespace")
	mJobSeconds = obs.Default().Histogram(metricJobSeconds,
		"job wall-clock seconds from start to terminal state", obs.DurationBuckets)
	mSSEKeepalives = obs.Default().Counter(metricSSEKeepalives,
		"keepalive comment frames written to idle SSE streams")
	mQueueDepth = obs.Default().GaugeVec(metricQueueDepth,
		"jobs waiting in the scheduler queue, by namespace", "namespace")
	mJobsRunning = obs.Default().GaugeVec(metricJobsRunning,
		"jobs currently running, by namespace", "namespace")
	mLockWait = obs.Default().HistogramVec(metricLockWait,
		"seconds a job waited from submit until the scheduler reserved its systems and it started writing, by namespace",
		obs.DurationBuckets, "namespace")
)
