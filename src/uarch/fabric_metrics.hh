/**
 * @file
 * tia-metrics/v1 run entries built from a finished CycleFabric: the
 * bridge between the simulator's live state (counters, hang report,
 * executed PE steps, channel high-water marks) and the structured
 * metrics documents tia-sim and tia-sweep emit (obs/metrics.hh).
 */

#ifndef TIA_UARCH_FABRIC_METRICS_HH
#define TIA_UARCH_FABRIC_METRICS_HH

#include "obs/json.hh"
#include "uarch/cycle_fabric.hh"

namespace tia {

/**
 * Build the per-run metrics object for @p fabric after a run() with
 * final status @p status.
 */
JsonValue fabricRunMetrics(const CycleFabric &fabric, const PeConfig &uarch,
                           RunStatus status);

} // namespace tia

#endif // TIA_UARCH_FABRIC_METRICS_HH
