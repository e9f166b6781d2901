/**
 * @file
 * Fundamental scalar types shared across the TIA libraries.
 */

#ifndef TIA_CORE_TYPES_HH
#define TIA_CORE_TYPES_HH

#include <cstdint>

namespace tia {

/** Architectural data word (Table 1: Word = 32 bits). */
using Word = std::uint32_t;

/** Signed view of an architectural word, for arithmetic comparisons. */
using SWord = std::int32_t;

/** Double-width word used by the two-word-product multiplier. */
using DWord = std::uint64_t;

/** Queue tag value (Table 1: TagWidth = 2 bits at default parameters). */
using Tag = std::uint8_t;

/** One tagged token: a channel entry (Section 2.1). */
struct Token
{
    Word data = 0;
    Tag tag = 0;

    bool operator==(const Token &) const = default;
};

/** Simulation time measured in PE clock cycles. */
using Cycle = std::uint64_t;

/**
 * Default simulation budget shared by every run entry point
 * (FabricRunOptions, which CycleRunOptions extends; tia-sim
 * --max-cycles). A single constant so the same workload cannot
 * classify as a hang from one entry point and complete from another.
 */
inline constexpr Cycle kDefaultMaxCycles = 100'000'000;

/**
 * Default quiescence/watchdog window: cycles without retirement or
 * agent activity before a fabric is declared quiescent, and, at the
 * cycle budget, without observable progress before a run is
 * classified as livelock.
 */
inline constexpr Cycle kDefaultQuiescenceWindow = 10'000;

} // namespace tia

#endif // TIA_CORE_TYPES_HH
