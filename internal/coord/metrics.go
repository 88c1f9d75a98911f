// Coordinator metrics: spawn/steal/retry activity, worker liveness,
// and the age of the stalest running worker's heartbeat all feed the
// obs registry.
package coord

import "spex/internal/obs"

const (
	metricSpawns         = "spex_coord_spawns_total"
	metricSteals         = "spex_coord_steals_total"
	metricStolenKeys     = "spex_coord_stolen_keys_total"
	metricRetries        = "spex_coord_retries_total"
	metricWorkersRunning = "spex_coord_workers_running"
	metricHeartbeatLag   = "spex_coord_heartbeat_lag_seconds"
)

var (
	mSpawns         = obs.Default().Counter(metricSpawns, "workers spawned (initial partitions, respawns after steals, retries)")
	mSteals         = obs.Default().Counter(metricSteals, "work-stealing rebalances committed")
	mStolenKeys     = obs.Default().Counter(metricStolenKeys, "keys moved off laggard leases by steals")
	mRetries        = obs.Default().Counter(metricRetries, "failed workers respawned on their unchanged lease")
	mWorkersRunning = obs.Default().Gauge(metricWorkersRunning, "coordinated workers currently running")
	mHeartbeatLag   = obs.Default().Gauge(metricHeartbeatLag, "age in seconds of the stalest heartbeat among running coordinated workers, read every poll; 0 while none runs")
)
