/**
 * @file
 * Cycle-accurate trace events: the observability layer's wire format.
 *
 * A TraceSink receives one compact TraceEvent per observable
 * micro-event — issue-slot attribution, issues, retirements, quashes,
 * predictor outcomes, stage occupancy, queue depths and halts —
 * emitted by PipelinedPe and CycleFabric when a sink is installed.
 * With no sink installed every emission site is a single predictable
 * null-pointer test, so tracing costs nothing when off
 * (asserted against BENCH_throughput.json by bench_sim_throughput).
 *
 * The counter cross-check contract: every event that corresponds to a
 * PerfCounters increment is emitted at exactly the statement that
 * performs the increment, so a CpiReconstructor folding the event
 * stream rebuilds the issue-slot attribution counters bit-identically.
 * tests/test_observability.cc asserts it on the Table 3 suite under
 * uarchs that span both queue views, prediction and nested
 * speculation, and under fault injection. A traced run steps every
 * cycle (the fabric memo is off under a sink), so the check guards
 * every increment of the step() path against a missing or extra
 * event.
 *
 * Timestamps are fabric cycle numbers: every unhalted PE steps every
 * fabric cycle, so a PE's cycle count is the fabric clock, and each
 * event is recorded during the cycle it carries. The whole stream is
 * therefore in non-decreasing cycle order, across PEs and channels
 * (asserted by tests/test_observability.cc).
 */

#ifndef TIA_OBS_TRACE_HH
#define TIA_OBS_TRACE_HH

#include <cstdint>
#include <vector>

#include "core/types.hh"

namespace tia {

/** How much a sink is asked to observe. */
enum class TraceLevel : std::uint8_t
{
    /** Counter-relevant events only (issues, retires, predictions...). */
    Events,
    /** Events plus per-cycle stage occupancy and queue depths. */
    Cycles,
};

/** Discriminator for TraceEvent. */
enum class TraceEventKind : std::uint8_t
{
    /**
     * One issue-slot cycle lost to the bucket in `arg` (a TraceBucket).
     * Emitted where the corresponding PerfCounters stall bucket
     * increments.
     */
    Attribution,
    /** An instruction issued. index = instruction slot, value = id. */
    Issue,
    /** An instruction retired. index = slot, value = id, arg = flags. */
    Retire,
    /**
     * An issued instruction (or the issue slot itself) was quashed on
     * misprediction. arg bit kQuashIssueSlot distinguishes the squashed
     * issue cycle (which also counts one cycle) from a flushed
     * in-flight instruction (whose cycle was counted at issue).
     */
    Quash,
    /**
     * A predicate prediction was made. arg = predicate index, value
     * bit 0 = predicted value, bit 1 = prediction inverted by fault
     * injection.
     */
    Predict,
    /**
     * A prediction resolved at writeback. arg = predicate index, value
     * bit 0 = actual value, bit 1 = mispredict, bit 2 = an injected
     * flip was repaired by the rollback.
     */
    Resolve,
    /**
     * Stage `arg` holds instruction `index` (issue id `value`) this
     * cycle. Cycles level only.
     */
    StageOccupancy,
    /**
     * Channel `index` has committed occupancy `value` at the end of
     * this cycle. Emitted by the fabric for channels active this
     * cycle; pe is kChannelAgent. Cycles level only.
     */
    QueueDepth,
    /** This PE's halt retired. */
    Halt,
};

/** Attribution buckets, mirroring the PerfCounters stall fields. */
enum class TraceBucket : std::uint8_t
{
    PredicateHazard,
    DataHazard,
    Forbidden,
    NoTrigger,
};

/** Quash arg flag: the quash claimed this cycle's issue slot. */
inline constexpr std::uint8_t kQuashIssueSlot = 1;

/** Retire arg flag: the retired instruction wrote a predicate. */
inline constexpr std::uint8_t kRetireWrotePredicate = 1;

/** TraceEvent::pe value for fabric-level (channel) events. */
inline constexpr std::uint32_t kChannelAgent = 0xffffffffu;

/** One observable micro-event (24 bytes). */
struct TraceEvent
{
    Cycle cycle = 0;        ///< Fabric cycle the event happened in.
    std::uint32_t pe = 0;   ///< Emitting PE, or kChannelAgent.
    TraceEventKind kind = TraceEventKind::Attribution;
    std::uint8_t arg = 0;   ///< Kind-specific small argument.
    std::uint16_t index = 0; ///< Kind-specific index (slot, channel...).
    std::uint64_t value = 0; ///< Kind-specific payload.

    bool operator==(const TraceEvent &) const = default;
};

/** Receiver of trace events, in non-decreasing cycle order (see the
 *  file comment); within a cycle, in the order the fabric steps. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    virtual void record(const TraceEvent &event) = 0;
};

/** Fans one event stream out to several sinks (e.g. a Chrome exporter
 *  and a CpiReconstructor cross-check in the same run). */
class TeeSink : public TraceSink
{
  public:
    void add(TraceSink *sink) { sinks_.push_back(sink); }

    void
    record(const TraceEvent &event) override
    {
        for (TraceSink *sink : sinks_)
            sink->record(event);
    }

  private:
    std::vector<TraceSink *> sinks_;
};

} // namespace tia

#endif // TIA_OBS_TRACE_HH
