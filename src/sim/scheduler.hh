/**
 * @file
 * Trigger resolution: the scheduler / priority-encoder pair at the
 * front end of every triggered PE (paper Figure 2).
 *
 * The scheduler compares each valid instruction's trigger against the
 * predicate state and a *view* of queue status, and selects the
 * highest-priority eligible instruction. The queue-status view is
 * abstract so the same resolution logic serves the functional
 * simulator (live occupancy) and the pipelined microarchitectures
 * (conservative or effective accounting, Section 5.3).
 *
 * Priority correctness under unresolved predicates: when an in-flight
 * datapath predicate write leaves a trigger's outcome unknown, no
 * lower-priority instruction may issue — the cycle is a predicate
 * hazard (Section 5.1).
 */

#ifndef TIA_SIM_SCHEDULER_HH
#define TIA_SIM_SCHEDULER_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/instruction.hh"
#include "core/types.hh"

namespace tia {

/** Abstract view of queue status as seen by a scheduler. */
class QueueStatusView
{
  public:
    virtual ~QueueStatusView() = default;

    /** Effective occupancy of input queue @p q (0 if conservatively empty). */
    virtual unsigned inputOccupancy(unsigned q) const = 0;

    /** Tag of the effective head of input queue @p q, if available. */
    virtual std::optional<Tag> inputHeadTag(unsigned q) const = 0;

    /** True if output queue @p q can accept one more token. */
    virtual bool outputHasSpace(unsigned q) const = 0;
};

/** Outcome of one trigger-resolution attempt. */
enum class ScheduleOutcome
{
    Fire,               ///< An instruction is eligible; index reported.
    BlockedOnPredicate, ///< Outcome depends on an unresolved predicate.
    None,               ///< Nothing is eligible this cycle.
};

struct ScheduleResult
{
    ScheduleOutcome outcome = ScheduleOutcome::None;
    unsigned index = 0; ///< Selected instruction (valid when Fire).
};

/**
 * Resolve triggers in priority order.
 *
 * @param instructions the PE's instruction store (priority order).
 * @param preds        current (possibly speculative) predicate state.
 * @param pendingPreds bitmask of predicates with in-flight, unresolved
 *                     datapath writes (always 0 with prediction on or
 *                     in the functional simulator).
 * @param view         queue status view.
 */
ScheduleResult schedule(const std::vector<Instruction> &instructions,
                        std::uint64_t preds, std::uint64_t pendingPreds,
                        const QueueStatusView &view);

/**
 * Evaluate all non-predicate trigger conditions (queue occupancy, tag
 * matches, source availability, destination space) for one instruction.
 */
bool queueConditionsHold(const Instruction &inst,
                         const QueueStatusView &view);

/**
 * Queue status packed into words for the mask-based fast path. A PE
 * computes it at most once per cycle (each bound queue inspected
 * once), and only when some predicate-eligible trigger has queue
 * requirements, instead of re-deriving queue status per instruction
 * condition through virtual QueueStatusView calls.
 *
 * headTag[q] is meaningful only where bit q of inputReady is set (an
 * effectively non-empty queue always has a peekable head); consumers
 * must test inputReady first, which the requirement-mask compare does
 * implicitly. For that reason headTag is deliberately left without an
 * initializer: a default-initialized QueueStatusWords (built fresh
 * every cycle) skips zero-filling tags no consumer may read — every
 * compiled tag check adds its queue to the descriptor's inputNeed
 * mask, so an unready queue's tag slot is never inspected.
 */
struct QueueStatusWords
{
    std::uint32_t inputReady = 0;  ///< Bit q: input q effectively non-empty.
    std::uint32_t outputSpace = 0; ///< Bit q: output q has space.
    std::array<Tag, 32> headTag;   ///< Effective head tags (see above).
};

/**
 * Mask-based equivalent of queueConditionsHold for a compiled trigger:
 * two AND/compare operations plus at most MaxCheck tag compares.
 * Exactly equivalent to the reference given consistent status
 * (asserted by tests/test_hot_path.cc). Defined inline — this runs
 * once per instruction per cycle in the issue stage.
 */
inline bool
queueConditionsHold(const TriggerDesc &desc, const QueueStatusWords &status)
{
    // Occupancy, source availability, dequeue availability and
    // destination space collapse to two requirement-mask compares.
    if ((desc.inputNeed & ~status.inputReady) != 0)
        return false;
    if ((desc.outputNeed & ~status.outputSpace) != 0)
        return false;
    // Tag conditions: the queues involved passed the inputReady test
    // above, so their effective head tags are meaningful.
    for (unsigned c = 0; c < desc.numChecks; ++c) {
        const QueueCheck &check = desc.checks[c];
        const bool match = status.headTag[check.queue] == check.tag;
        if (match == check.negate)
            return false;
    }
    return true;
}

/**
 * Mask-based trigger resolution over compiled descriptors: the fast
 * path used by the cycle-accurate PE's issue stage. Bit-identical to
 * schedule() on the corresponding instructions and a consistent view.
 *
 * Predicate-first: each descriptor's predicate masks are tested
 * before its queue conditions. Both tests only ever skip a descriptor,
 * and Blocked/Fire needs both to pass, so the order cannot change the
 * outcome. @p status is a callable returning this cycle's
 * QueueStatusWords; it is invoked at most once, and only when a
 * predicate-eligible descriptor has queue requirements, so a cycle
 * whose candidates are pure register/predicate triggers inspects no
 * queue at all.
 */
template <typename StatusFn>
inline ScheduleResult
scheduleLazy(const std::vector<TriggerDesc> &descs, std::uint64_t preds,
             std::uint64_t pendingPreds, StatusFn &&status)
{
    const std::uint64_t resolved = ~pendingPreds;
    std::optional<QueueStatusWords> words;
    for (unsigned i = 0; i < descs.size(); ++i) {
        const TriggerDesc &desc = descs[i];
        if (!desc.valid)
            continue;

        const std::uint64_t on_fail = desc.predOn & ~preds;
        const std::uint64_t off_fail = desc.predOff & preds;
        if (((on_fail | off_fail) & resolved) != 0)
            continue;

        // A tag check always names a queue in inputNeed, so a
        // descriptor with both need masks clear has no queue condition.
        if ((desc.inputNeed | desc.outputNeed) != 0) {
            if (!words)
                words.emplace(status());
            if (!queueConditionsHold(desc, *words))
                continue;
        }

        if (((desc.predOn | desc.predOff) & pendingPreds) != 0)
            return {ScheduleOutcome::BlockedOnPredicate, i};

        return {ScheduleOutcome::Fire, i};
    }
    return {ScheduleOutcome::None, 0};
}

} // namespace tia

#endif // TIA_SIM_SCHEDULER_HH
