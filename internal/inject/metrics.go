// Campaign accounting metrics: every assembled report feeds the obs
// registry with replayed-vs-fresh outcome counts, the sim-cost units
// actually paid vs avoided by replay, and yields surrendered to
// work-stealing rebalances.
package inject

import "spex/internal/obs"

const (
	metricOutcomesFresh    = "spex_campaign_outcomes_fresh_total"
	metricOutcomesReplayed = "spex_campaign_outcomes_replayed_total"
	metricOutcomesYielded  = "spex_campaign_outcomes_yielded_total"
	metricSimCost          = "spex_campaign_sim_cost_units_total"
	metricSimCostSaved     = "spex_campaign_sim_cost_saved_units_total"
)

var (
	mOutcomesFresh    = obs.Default().Counter(metricOutcomesFresh, "outcomes executed fresh against the simulated systems")
	mOutcomesReplayed = obs.Default().Counter(metricOutcomesReplayed, "outcomes replayed from stored snapshots")
	mOutcomesYielded  = obs.Default().Counter(metricOutcomesYielded, "outcomes yielded to a work-stealing rebalance")
	mSimCost          = obs.Default().Counter(metricSimCost, "simulated cost units paid by fresh executions")
	mSimCostSaved     = obs.Default().Counter(metricSimCostSaved, "simulated cost units avoided by replay")
)

// recordReportMetrics folds one assembled report into the registry.
func recordReportMetrics(rep *Report) {
	mOutcomesReplayed.Add(uint64(rep.Replayed))
	if fresh := rep.Finished() - rep.Replayed; fresh > 0 {
		mOutcomesFresh.Add(uint64(fresh))
	}
	mOutcomesYielded.Add(uint64(rep.Yielded))
	mSimCost.Add(uint64(rep.TotalSimCost))
	mSimCostSaved.Add(uint64(rep.ReplayedSimCost))
}
