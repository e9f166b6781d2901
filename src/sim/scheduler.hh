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
 * (conservative or effective accounting, Section 5.3). It is the one
 * resolution path: the pipelined PE calls schedule() afresh on every
 * step it executes, and the functional simulator on every step.
 *
 * Priority correctness under unresolved predicates: when an in-flight
 * datapath predicate write leaves a trigger's outcome unknown, no
 * lower-priority instruction may issue — the cycle is a predicate
 * hazard (Section 5.1).
 */

#ifndef TIA_SIM_SCHEDULER_HH
#define TIA_SIM_SCHEDULER_HH

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

} // namespace tia

#endif // TIA_SIM_SCHEDULER_HH
