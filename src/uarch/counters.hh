/**
 * @file
 * Per-PE performance counters and CPI stack (paper Figure 5).
 *
 * Every simulated cycle (up to and including the cycle the PE's halt
 * retires) is attributed to exactly one bucket, so the buckets sum to
 * the cycle count and divide by retired instructions into the CPI
 * stack the paper plots.
 */

#ifndef TIA_UARCH_COUNTERS_HH
#define TIA_UARCH_COUNTERS_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "core/types.hh"

namespace tia {

/** Raw event counts collected by a pipelined PE. */
struct PerfCounters
{
    Cycle cycles = 0; ///< Cycles from reset to halt retirement.

    // Issue-slot attribution (sums to cycles).
    std::uint64_t retired = 0;       ///< Issue cycles that retired.
    std::uint64_t quashed = 0;       ///< Issue cycles flushed on misprediction.
    std::uint64_t predicateHazard = 0; ///< Stalls on unresolved predicates.
    std::uint64_t dataHazard = 0;    ///< Stalls on register dependences.
    std::uint64_t forbidden = 0;     ///< Ready but barred during speculation.
    std::uint64_t noTrigger = 0;     ///< No eligible instruction.

    // Secondary statistics.
    std::uint64_t predicateWrites = 0; ///< Retired datapath predicate writes.
    std::uint64_t predictions = 0;     ///< Predictions made (+P).
    std::uint64_t mispredictions = 0;  ///< Predictions that rolled back.
    std::uint64_t dequeues = 0;        ///< Input tokens consumed.
    std::uint64_t enqueues = 0;        ///< Output tokens produced.

    // Fault-injection accounting (sim/fault.hh).
    std::uint64_t faultsInjected = 0;  ///< Predictions inverted by a fault.
    std::uint64_t faultRecoveries = 0; ///< Injected flips repaired by rollback.

    /**
     * Cycles per retired instruction. A PE that retired nothing (never
     * triggered, or deadlocked) has no CPI: reporting 0.0 would claim
     * the best possible one, so the undefined case is NaN — rendered
     * "-" by formatCpi() and null in JSON.
     */
    double
    cpi() const
    {
        return retired == 0 ? std::numeric_limits<double>::quiet_NaN()
                            : static_cast<double>(cycles) /
                                  static_cast<double>(retired);
    }

    /** Dynamic rate of datapath predicate writes (Figure 4 x-axis). */
    double
    predicateWriteRate() const
    {
        return retired == 0 ? 0.0
                            : static_cast<double>(predicateWrites) /
                                  static_cast<double>(retired);
    }

    /** Prediction accuracy (Figure 4). */
    double
    predictionAccuracy() const
    {
        return predictions == 0
                   ? 1.0
                   : 1.0 - static_cast<double>(mispredictions) /
                               static_cast<double>(predictions);
    }

    /** Field-wise equality (the optimization-equivalence tests). */
    bool operator==(const PerfCounters &) const = default;
};

/** A normalized CPI stack (per retired instruction), Figure 5 format. */
struct CpiStack
{
    double retired = 0.0; ///< Always 1.0 when any instruction retired.
    double quashed = 0.0;
    double predicateHazard = 0.0;
    double dataHazard = 0.0;
    double forbidden = 0.0;
    double noTrigger = 0.0;

    double
    total() const
    {
        return retired + quashed + predicateHazard + dataHazard + forbidden +
               noTrigger;
    }

    CpiStack &
    operator+=(const CpiStack &other)
    {
        retired += other.retired;
        quashed += other.quashed;
        predicateHazard += other.predicateHazard;
        dataHazard += other.dataHazard;
        forbidden += other.forbidden;
        noTrigger += other.noTrigger;
        return *this;
    }

    CpiStack &
    operator/=(double divisor)
    {
        // Averaging over an empty workload set is undefined; make it
        // uniformly NaN (rendered "-" / null) instead of letting a
        // zero divisor leak 0/0 and inf into the Figure 5 tables.
        if (divisor == 0.0)
            divisor = std::numeric_limits<double>::quiet_NaN();
        retired /= divisor;
        quashed /= divisor;
        predicateHazard /= divisor;
        dataHazard /= divisor;
        forbidden /= divisor;
        noTrigger /= divisor;
        return *this;
    }
};

/**
 * Render a CPI-like value for tables: "-" for the undefined (NaN or
 * infinite) case, a fixed-point number otherwise. Shared by the
 * tia-sim counter printout and the bench CPI tables.
 */
inline std::string
formatCpi(double value, int precision = 3)
{
    if (!std::isfinite(value))
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

/** Convert raw counters to a CPI stack. */
inline CpiStack
cpiStack(const PerfCounters &counters)
{
    CpiStack stack;
    if (counters.retired == 0)
        return stack;
    const double retired = static_cast<double>(counters.retired);
    stack.retired = 1.0;
    stack.quashed = static_cast<double>(counters.quashed) / retired;
    stack.predicateHazard =
        static_cast<double>(counters.predicateHazard) / retired;
    stack.dataHazard = static_cast<double>(counters.dataHazard) / retired;
    stack.forbidden = static_cast<double>(counters.forbidden) / retired;
    stack.noTrigger = static_cast<double>(counters.noTrigger) / retired;
    return stack;
}

} // namespace tia

#endif // TIA_UARCH_COUNTERS_HH
