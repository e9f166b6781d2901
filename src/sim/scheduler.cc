#include "sim/scheduler.hh"

namespace tia {

bool
queueConditionsHold(const Instruction &inst, const QueueStatusView &view)
{
    // Explicit tag checks in the trigger.
    for (const auto &check : inst.trigger.queueChecks) {
        if (view.inputOccupancy(check.queue) == 0)
            return false;
        const auto tag = view.inputHeadTag(check.queue);
        if (!tag.has_value())
            return false;
        const bool match = *tag == check.tag;
        if (match == check.negate)
            return false;
    }
    // Implicit operand availability.
    for (const auto &src : inst.srcs) {
        if (src.type == SrcType::InputQueue &&
            view.inputOccupancy(src.index) == 0) {
            return false;
        }
    }
    // Implicit dequeue availability.
    for (auto q : inst.dequeues) {
        if (view.inputOccupancy(q) == 0)
            return false;
    }
    // Destination space.
    if (inst.dst.type == DstType::OutputQueue &&
        !view.outputHasSpace(inst.dst.index)) {
        return false;
    }
    return true;
}

ScheduleResult
schedule(const std::vector<Instruction> &instructions, std::uint64_t preds,
         std::uint64_t pendingPreds, const QueueStatusView &view)
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
        // no matter how the predicates resolve; skip it.
        if (!queueConditionsHold(inst, view))
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
