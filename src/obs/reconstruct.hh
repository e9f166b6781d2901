/**
 * @file
 * Trace-derived counter reconstruction: folds a TraceEvent stream back
 * into per-PE PerfCounters, independently of the simulator's own
 * accounting. Because every counter-relevant event is emitted at the
 * statement that increments the counter (see obs/trace.hh), the
 * reconstruction is bit-identical to the live counters — the standing
 * cross-check that the PE's issue-slot attribution and its event
 * stream agree (tests/test_observability.cc).
 *
 * Reconstructed fields: cycles, the six issue-slot attribution buckets,
 * predicateWrites, predictions, mispredictions, faultsInjected and
 * faultRecoveries. Dequeues/enqueues are channel-side effects with no
 * per-event trace record; they are left zero and excluded from the
 * cross-check.
 */

#ifndef TIA_OBS_RECONSTRUCT_HH
#define TIA_OBS_RECONSTRUCT_HH

#include <vector>

#include "obs/trace.hh"
#include "uarch/counters.hh"

namespace tia {

/** Rebuilds per-PE counters from the event stream. */
class CpiReconstructor : public TraceSink
{
  public:
    void record(const TraceEvent &event) override;

    /** PEs seen so far (highest PE id + 1). */
    unsigned numPes() const { return static_cast<unsigned>(pes_.size()); }

    /** Counters rebuilt for PE @p pe (reconstructed fields only). */
    PerfCounters counters(unsigned pe) const;

    /** Issued-but-unretired (and unflushed) instructions at stream end. */
    unsigned inFlight(unsigned pe) const;

    /** True once PE @p pe's halt retirement was observed. */
    bool halted(unsigned pe) const;

    /** Counter-relevant events folded (attribution cross-check size). */
    std::uint64_t totalEvents() const { return totalEvents_; }

  private:
    struct PeState
    {
        PerfCounters c;
        std::uint64_t issued = 0;
        std::uint64_t flushQuashed = 0;
        bool halted = false;
    };

    PeState &state(std::uint32_t pe);

    std::vector<PeState> pes_;
    std::uint64_t totalEvents_ = 0;
};

} // namespace tia

#endif // TIA_OBS_RECONSTRUCT_HH
