// Boot metrics: every monitored target boot records its observed kind
// (ok/crash/exit/hang/error/cancelled/timeout) in the obs registry.
package sim

import "spex/internal/obs"

const metricBoots = "spex_sim_boots_total"

var mBoots = obs.Default().CounterVec(metricBoots, "monitored target boots by observed reaction kind", "kind")
