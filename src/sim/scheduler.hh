/**
 * @file
 * Trigger resolution: the scheduler / priority-encoder pair at the
 * front end of every triggered PE (paper Figure 2).
 *
 * The scheduler compares each valid instruction's trigger against the
 * predicate state and a *view* of queue status, and selects the
 * highest-priority eligible instruction. The view is a template
 * parameter, so the same resolution logic serves the functional
 * simulator (live occupancy) and the pipelined microarchitectures
 * (conservative or effective accounting, Section 5.3) with no virtual
 * calls. A view is any type with two accessors:
 *
 *  - `const Token *inputHead(unsigned q) const`: the head of input
 *    queue q as the view sees it, or null when the view sees the
 *    queue empty (under +Q the "head" may sit past in-flight dequeues,
 *    the paper's "head and neck");
 *  - `bool outputHasSpace(unsigned q) const`: output queue q can
 *    accept one more token.
 *
 * schedule() is the one resolution path: the pipelined PE calls it
 * afresh on every step it executes, and the functional simulator on
 * every step.
 *
 * Priority correctness under unresolved predicates: when an in-flight
 * datapath predicate write leaves a trigger's outcome unknown, no
 * lower-priority instruction may issue — the cycle is a predicate
 * hazard (Section 5.1).
 */

#ifndef TIA_SIM_SCHEDULER_HH
#define TIA_SIM_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "core/instruction.hh"
#include "core/types.hh"

namespace tia {

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

/** Which side of the PE a failing queue condition names. */
enum class PortKind
{
    Input,  ///< An input queue is empty or holds the wrong tag.
    Output, ///< An output queue has no space.
};

/**
 * The non-predicate trigger conditions of @p inst under @p view, in
 * trigger order: tag checks (with negation), operand availability,
 * dequeue availability, destination space. Each failing condition is
 * reported as @p on_fail(kind, queue); the walk goes on while on_fail
 * returns true and stops when it returns false.
 *
 * @return true iff every condition holds.
 */
template <typename View, typename OnFail>
bool
queueConditionsHold(const Instruction &inst, const View &view,
                    OnFail &&on_fail)
{
    bool hold = true;
    auto fail = [&](PortKind kind, unsigned q) {
        hold = false;
        return on_fail(kind, q);
    };
    for (const auto &check : inst.trigger.queueChecks) {
        const Token *head = view.inputHead(check.queue);
        if ((!head || (head->tag == check.tag) == check.negate) &&
            !fail(PortKind::Input, check.queue)) {
            return false;
        }
    }
    for (const auto &src : inst.srcs) {
        if (src.type == SrcType::InputQueue && !view.inputHead(src.index) &&
            !fail(PortKind::Input, src.index)) {
            return false;
        }
    }
    for (auto q : inst.dequeues) {
        if (!view.inputHead(q) && !fail(PortKind::Input, q))
            return false;
    }
    if (inst.dst.type == DstType::OutputQueue &&
        !view.outputHasSpace(inst.dst.index) &&
        !fail(PortKind::Output, inst.dst.index)) {
        return false;
    }
    return hold;
}

/**
 * Resolve triggers in priority order.
 *
 * @param instructions the PE's instruction store (priority order).
 * @param preds        current (possibly speculative) predicate state.
 * @param pendingPreds bitmask of predicates with in-flight, unresolved
 *                     datapath writes (always 0 with prediction on or
 *                     in the functional simulator).
 * @param view         queue status view (see file comment).
 */
template <typename View>
ScheduleResult
schedule(const std::vector<Instruction> &instructions, std::uint64_t preds,
         std::uint64_t pendingPreds, const View &view)
{
    for (unsigned i = 0; i < instructions.size(); ++i) {
        const Instruction &inst = instructions[i];
        if (!inst.trigger.valid)
            continue;

        // Definitely fails on a *resolved* predicate bit: skip. Tested
        // before the queue conditions, which cost more; the two skips
        // are independent, so their order changes no result.
        const std::uint64_t on_fail = inst.trigger.predOn & ~preds;
        const std::uint64_t off_fail = inst.trigger.predOff & preds;
        if (((on_fail | off_fail) & ~pendingPreds) != 0)
            continue;

        // A trigger whose queue conditions fail cannot fire this cycle
        // no matter how the predicates resolve; skip it at the first
        // failure.
        if (!queueConditionsHold(inst, view,
                                 [](PortKind, unsigned) { return false; }))
            continue;

        const std::uint64_t cares = inst.trigger.predOn |
                                    inst.trigger.predOff;

        // Any remaining required bit that is pending makes the outcome
        // unknown; priority forbids issuing anything lower.
        if ((cares & pendingPreds) != 0)
            return {ScheduleOutcome::BlockedOnPredicate, i};

        return {ScheduleOutcome::Fire, i};
    }
    return {ScheduleOutcome::None, 0};
}

} // namespace tia

#endif // TIA_SIM_SCHEDULER_HH
