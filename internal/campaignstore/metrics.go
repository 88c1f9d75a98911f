// Store metrics: persistence costs (save/load latency, snapshot
// size) and the replay policy's decisions (outcomes loaded for
// replay, delta retests, full-campaign fallbacks) feed the
// process-global obs registry.
package campaignstore

import "spex/internal/obs"

const (
	metricSaves            = "spex_store_saves_total"
	metricSaveErrors       = "spex_store_save_errors_total"
	metricSaveSeconds      = "spex_store_save_seconds"
	metricSnapshotBytes    = "spex_store_snapshot_bytes"
	metricLoads            = "spex_store_loads_total"
	metricLoadErrors       = "spex_store_load_errors_total"
	metricLoadSeconds      = "spex_store_load_seconds"
	metricPrepareReplayed  = "spex_store_prepare_replayed_outcomes_total"
	metricPrepareRetests   = "spex_store_prepare_retests_total"
	metricPrepareFallbacks = "spex_store_prepare_fallbacks_total"
)

var (
	mSaves            = obs.Default().Counter(metricSaves, "snapshots saved")
	mSaveErrors       = obs.Default().Counter(metricSaveErrors, "snapshot saves that failed")
	mSaveSeconds      = obs.Default().Histogram(metricSaveSeconds, "wall-clock seconds per snapshot save", obs.DurationBuckets)
	mSnapshotBytes    = obs.Default().Histogram(metricSnapshotBytes, "bytes per saved snapshot file", obs.SizeBuckets)
	mLoads            = obs.Default().Counter(metricLoads, "snapshots loaded and validated")
	mLoadErrors       = obs.Default().Counter(metricLoadErrors, "snapshot loads that failed validation (missing snapshots excluded)")
	mLoadSeconds      = obs.Default().Histogram(metricLoadSeconds, "wall-clock seconds per snapshot load", obs.DurationBuckets)
	mPrepareReplayed  = obs.Default().Counter(metricPrepareReplayed, "outcomes Prepare loaded from snapshots for replay")
	mPrepareRetests   = obs.Default().Counter(metricPrepareRetests, "misconfigurations the constraint delta selected for re-execution")
	mPrepareFallbacks = obs.Default().Counter(metricPrepareFallbacks, "Prepare calls that fell back to a full campaign")
)
