#include "sim/scheduler.hh"

#include "core/logging.hh"

namespace tia {

namespace {

/** Bit q of a 32-bit queue mask, range checked. */
std::uint32_t
queueBit(unsigned q, unsigned line)
{
    fatalIf(q >= 32, "line ", line, ": queue index ", q,
            " exceeds the trigger encoder's 32-queue masks");
    return std::uint32_t{1} << q;
}

} // namespace

TriggerEncoder::TriggerEncoder(const ArchParams &params,
                               const std::vector<Instruction> &program)
    : predBytes_((params.numPreds + 7) / 8),
      tagSlots_(unsigned{params.maxTag()} + 2),
      predTable_(256 * std::size_t{predBytes_}, 0),
      tagFail_(32 * std::size_t{tagSlots_}, 0)
{
    fatalIf(program.size() > kMaxInstructions, "the trigger encoder holds ",
            kMaxInstructions, " instructions, the program has ",
            program.size());
    fatalIf(params.numPreds > 64, "the trigger encoder holds 64 "
            "predicates, NPreds is ", params.numPreds);
    // Per predicate, the instructions that need it 1 and need it 0.
    std::array<std::uint64_t, 64> need_on{};
    std::array<std::uint64_t, 64> need_off{};
    for (unsigned i = 0; i < program.size(); ++i) {
        const Instruction &inst = program[i];
        if (!inst.trigger.valid)
            continue;
        const std::uint64_t bit = std::uint64_t{1} << i;
        valid_ |= bit;
        for (std::uint64_t rest = inst.trigger.predOn; rest != 0;
             rest &= rest - 1) {
            need_on[std::countr_zero(rest)] |= bit;
        }
        for (std::uint64_t rest = inst.trigger.predOff; rest != 0;
             rest &= rest - 1) {
            need_off[std::countr_zero(rest)] |= bit;
        }

        std::uint32_t need_in = 0;
        for (const auto &check : inst.trigger.queueChecks) {
            need_in |= queueBit(check.queue, inst.line);
            for (unsigned t = 0; t < tagSlots_; ++t) {
                // Slot tagSlots_ - 1 is above MaxTag: it matches no check.
                const bool match = t == check.tag;
                if (match == check.negate)
                    tagFail_[tagSlots_ * check.queue + t] |= bit;
            }
        }
        for (const auto &src : inst.srcs) {
            if (src.type == SrcType::InputQueue)
                need_in |= queueBit(src.index, inst.line);
        }
        for (auto q : inst.dequeues)
            need_in |= queueBit(q, inst.line);
        std::uint32_t need_out = 0;
        if (inst.dst.type == DstType::OutputQueue)
            need_out = queueBit(inst.dst.index, inst.line);

        for (std::uint32_t rest = need_in; rest != 0; rest &= rest - 1)
            needIn_[std::countr_zero(rest)] |= bit;
        if (need_out != 0)
            needOut_[std::countr_zero(need_out)] |= bit;
        inputsUsed_ |= need_in;
        outputsUsed_ |= need_out;
        if ((need_in | need_out) != 0)
            queueNeed_ |= bit;
    }

    for (unsigned p = 0; p < 64; ++p)
        refs_[p] = need_on[p] | need_off[p];
    // Each byte's table one predicate at a time: setting bit j of the
    // value drops the instructions that need predicate j at 0, leaving
    // it clear drops those that need it at 1.
    for (unsigned b = 0; b < predBytes_; ++b) {
        std::uint64_t *table = &predTable_[256 * b];
        table[0] = valid_;
        for (unsigned j = 0; j < 8; ++j) {
            const unsigned half = 1u << j;
            for (unsigned v = 0; v < half; ++v) {
                table[v | half] = table[v] & ~need_off[8 * b + j];
                table[v] &= ~need_on[8 * b + j];
            }
        }
    }
}

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

        // A trigger whose queue conditions fail cannot fire this cycle
        // no matter how the predicates resolve; skip it.
        if (!queueConditionsHold(inst, view))
            continue;

        const std::uint64_t cares = inst.trigger.predOn |
                                    inst.trigger.predOff;
        const std::uint64_t resolved = ~pendingPreds;

        // Definitely fails on a *resolved* predicate bit: skip.
        const std::uint64_t on_fail = inst.trigger.predOn & ~preds;
        const std::uint64_t off_fail = inst.trigger.predOff & preds;
        if (((on_fail | off_fail) & resolved) != 0)
            continue;

        // Any remaining required bit that is pending makes the outcome
        // unknown; priority forbids issuing anything lower.
        if ((cares & pendingPreds) != 0)
            return {ScheduleOutcome::BlockedOnPredicate, i};

        return {ScheduleOutcome::Fire, i};
    }
    return {ScheduleOutcome::None, 0};
}

} // namespace tia
