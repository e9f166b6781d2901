#include "core/instruction.hh"

#include <set>
#include <sstream>

#include "core/logging.hh"

namespace tia {

bool
Instruction::operator==(const Instruction &other) const
{
    return trigger == other.trigger && op == other.op &&
           srcs == other.srcs && dst == other.dst &&
           outTag == other.outTag && dequeues == other.dequeues &&
           predSet == other.predSet && predClear == other.predClear &&
           imm == other.imm;
}

void
Instruction::validate(const ArchParams &params) const
{
    const std::uint64_t pred_mask = (params.numPreds >= 64)
                                        ? ~std::uint64_t{0}
                                        : ((std::uint64_t{1}
                                            << params.numPreds) -
                                           1);

    fatalIf(static_cast<unsigned>(op) >= params.numOps,
            "line ", line, ": opcode out of range");
    fatalIf((trigger.predOn & ~pred_mask) != 0 ||
                (trigger.predOff & ~pred_mask) != 0,
            "line ", line, ": trigger references nonexistent predicates");
    fatalIf((trigger.predOn & trigger.predOff) != 0,
            "line ", line,
            ": trigger requires a predicate to be both set and clear");
    fatalIf(trigger.queueChecks.size() > params.maxCheck,
            "line ", line, ": at most ", params.maxCheck,
            " input queues may be checked per trigger (MaxCheck)");

    std::set<unsigned> checked;
    for (const auto &check : trigger.queueChecks) {
        fatalIf(check.queue >= params.numInputQueues,
                "line ", line, ": trigger checks nonexistent input queue %i",
                unsigned{check.queue});
        fatalIf(check.tag > params.maxTag(),
                "line ", line, ": tag ", unsigned{check.tag},
                " exceeds the maximum tag ", unsigned{params.maxTag()});
        fatalIf(!checked.insert(check.queue).second,
                "line ", line, ": input queue %i", unsigned{check.queue},
                " checked more than once in a trigger");
    }

    const auto &info = opInfo(op);
    unsigned imm_sources = 0;
    for (unsigned s = 0; s < srcs.size(); ++s) {
        const auto &src = srcs[s];
        switch (src.type) {
          case SrcType::None:
            fatalIf(s < info.numSrcs, "line ", line, ": operation ",
                    info.mnemonic, " requires ", info.numSrcs,
                    " source operands");
            break;
          case SrcType::Reg:
            fatalIf(src.index >= params.numRegs, "line ", line,
                    ": register %r", unsigned{src.index},
                    " out of range");
            break;
          case SrcType::InputQueue:
            fatalIf(src.index >= params.numInputQueues, "line ", line,
                    ": input queue %i", unsigned{src.index},
                    " out of range");
            break;
          case SrcType::Immediate:
            ++imm_sources;
            break;
        }
        fatalIf(s >= info.numSrcs && src.type != SrcType::None,
                "line ", line, ": operation ", info.mnemonic,
                " takes only ", info.numSrcs, " source operands");
    }
    fatalIf(imm_sources > 1, "line ", line,
            ": the encoding provides a single immediate field; at most one "
            "immediate source is allowed");

    switch (dst.type) {
      case DstType::None:
        break;
      case DstType::Reg:
        fatalIf(dst.index >= params.numRegs, "line ", line,
                ": destination register %r", unsigned{dst.index},
                " out of range");
        break;
      case DstType::OutputQueue:
        fatalIf(dst.index >= params.numOutputQueues, "line ", line,
                ": output queue %o", unsigned{dst.index}, " out of range");
        fatalIf(outTag > params.maxTag(), "line ", line, ": output tag ",
                unsigned{outTag}, " exceeds the maximum tag ",
                unsigned{params.maxTag()});
        break;
      case DstType::Predicate:
        fatalIf(dst.index >= params.numPreds, "line ", line,
                ": destination predicate %p", unsigned{dst.index},
                " out of range");
        break;
    }
    fatalIf(dst.type != DstType::None && !info.hasResult, "line ", line,
            ": operation ", info.mnemonic, " produces no result");

    fatalIf(dequeues.size() > params.maxDeq, "line ", line, ": at most ",
            params.maxDeq, " dequeues are allowed per instruction (MaxDeq)");
    std::set<unsigned> deq_set;
    for (auto q : dequeues) {
        fatalIf(q >= params.numInputQueues, "line ", line,
                ": dequeue of nonexistent input queue %i", unsigned{q});
        fatalIf(!deq_set.insert(q).second, "line ", line,
                ": input queue %i", unsigned{q}, " dequeued twice");
    }

    fatalIf((predSet & ~pred_mask) != 0 || (predClear & ~pred_mask) != 0,
            "line ", line, ": predicate update references nonexistent "
            "predicates");
    fatalIf((predSet & predClear) != 0, "line ", line,
            ": predicate update forces a bit both high and low");
    if (dst.type == DstType::Predicate) {
        const std::uint64_t dst_bit = std::uint64_t{1} << dst.index;
        // The assembler guarantees this non-conflict (Section 2.2).
        fatalIf(((predSet | predClear) & dst_bit) != 0, "line ", line,
                ": predicate update mask conflicts with the datapath "
                "predicate destination %p",
                unsigned{dst.index});
    }
}

namespace {

void
appendPredPattern(std::ostringstream &os, std::uint64_t on,
                  std::uint64_t off, unsigned num_preds, char dont_care)
{
    for (unsigned i = num_preds; i-- > 0;) {
        const std::uint64_t bit = std::uint64_t{1} << i;
        if (on & bit)
            os << '1';
        else if (off & bit)
            os << '0';
        else
            os << dont_care;
    }
}

void
appendSource(std::ostringstream &os, const Source &src, Word imm)
{
    switch (src.type) {
      case SrcType::None:
        break;
      case SrcType::Reg:
        os << "%r" << unsigned{src.index};
        break;
      case SrcType::InputQueue:
        os << "%i" << unsigned{src.index};
        break;
      case SrcType::Immediate:
        os << '#' << imm;
        break;
    }
}

} // namespace

std::string
Instruction::toString(const ArchParams &params) const
{
    std::ostringstream os;
    if (!trigger.valid)
        return "<invalid>";

    os << "when %p == ";
    appendPredPattern(os, trigger.predOn, trigger.predOff, params.numPreds,
                      'X');
    if (!trigger.queueChecks.empty()) {
        os << " with ";
        bool first = true;
        for (const auto &check : trigger.queueChecks) {
            if (!first)
                os << ", ";
            first = false;
            os << "%i" << unsigned{check.queue} << '.';
            if (check.negate)
                os << '!';
            os << unsigned{check.tag};
        }
    }
    os << ": " << opInfo(op).mnemonic;

    bool wrote_operand = false;
    if (dst.type != DstType::None) {
        os << ' ';
        switch (dst.type) {
          case DstType::Reg:
            os << "%r" << unsigned{dst.index};
            break;
          case DstType::OutputQueue:
            os << "%o" << unsigned{dst.index} << '.' << unsigned{outTag};
            break;
          case DstType::Predicate:
            os << "%p" << unsigned{dst.index};
            break;
          case DstType::None:
            break;
        }
        wrote_operand = true;
    }
    for (const auto &src : srcs) {
        if (src.type == SrcType::None)
            continue;
        os << (wrote_operand ? ", " : " ");
        appendSource(os, src, imm);
        wrote_operand = true;
    }

    if (!dequeues.empty()) {
        os << "; deq ";
        bool first = true;
        for (auto q : dequeues) {
            if (!first)
                os << ", ";
            first = false;
            os << "%i" << unsigned{q};
        }
    }
    if (predSet != 0 || predClear != 0) {
        os << "; set %p = ";
        appendPredPattern(os, predSet, predClear, params.numPreds, 'Z');
    }
    os << ';';
    return os.str();
}

} // namespace tia
