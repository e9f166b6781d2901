#include "uarch/pipelined_pe.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/logging.hh"
#include "core/opcode.hh"
#include "sim/fault.hh"

namespace tia {

std::uint64_t
PipelinedPe::queueFailMask(bool effective) const
{
    return encoder_.queueFail(
        [this, effective](unsigned q) -> std::optional<Tag> {
            if (schedInputOccupancy(q, effective) == 0)
                return std::nullopt;
            const auto tag = schedInputHeadTag(q, effective);
            panicIf(!tag.has_value(),
                    "effectively non-empty queue without a peekable head");
            return tag;
        },
        [this, effective](unsigned q) {
            return schedOutputHasSpace(q, effective);
        });
}

bool
PipelinedPe::queueViewsMayDiffer() const
{
    for (std::uint32_t rest = encoder_.inputsUsed(); rest != 0;
         rest &= rest - 1) {
        const unsigned q = static_cast<unsigned>(std::countr_zero(rest));
        if (pendingDeq_[q] != 0 ||
            (inputs_[q] && inputs_[q]->popsThisCycle() != 0))
            return true;
    }
    for (std::uint32_t rest = encoder_.outputsUsed(); rest != 0;
         rest &= rest - 1) {
        const unsigned q = static_cast<unsigned>(std::countr_zero(rest));
        if (pendingEnq_[q] != 0 ||
            (outputs_[q] && outputs_[q]->pendingPushes() != 0))
            return true;
    }
    return false;
}

/**
 * Diagnostic adapter exposing the PE's scheduler queue status through
 * the abstract QueueStatusView interface (used by queueWaits and the
 * scheduler-equivalence tests; the issue path uses queueFailMask).
 */
class CycleQueueView : public QueueStatusView
{
  public:
    explicit CycleQueueView(const PipelinedPe &pe) : pe_(pe) {}

    unsigned
    inputOccupancy(unsigned q) const override
    {
        return pe_.schedInputOccupancy(q, effective_);
    }

    std::optional<Tag>
    inputHeadTag(unsigned q) const override
    {
        return pe_.schedInputHeadTag(q, effective_);
    }

    bool
    outputHasSpace(unsigned q) const override
    {
        return pe_.schedOutputHasSpace(q, effective_);
    }

  private:
    const PipelinedPe &pe_;
    const bool effective_ = pe_.config_.effectiveQueueStatus;
};

namespace {

/** @p program, once checked to fit a PE built from @p params/@p config. */
std::vector<Instruction>
checkedProgram(const ArchParams &params, const PeConfig &config,
               std::vector<Instruction> program)
{
    fatalIf(program.size() > params.numInstructions,
            "program exceeds the PE instruction store");
    fatalIf(config.nestedSpeculation && !config.predictPredicates,
            "nested speculation (+N) requires predicate prediction (+P)");
    // validate() bounds every register, queue and predicate index an
    // instruction can name, so the trigger encoder and the per-cycle
    // paths index the per-PE arrays without range checks.
    for (const auto &inst : program)
        inst.validate(params);
    return program;
}

} // namespace

PipelinedPe::PipelinedPe(const ArchParams &params, const PeConfig &config,
                         std::vector<Instruction> program)
    : params_(params), config_(config), segD_(config.shape.segD()),
      lastSeg_(config.shape.depth() - 1), splitX_(config.shape.splitX),
      program_(checkedProgram(params, config, std::move(program))),
      encoder_(params, program_),
      regs_(params.numRegs, 0), scratchpad_(params.scratchpadWords, 0),
      pendingDeq_(params.numInputQueues, 0),
      pendingEnq_(params.numOutputQueues, 0),
      pendingPredWrites_(params.numPreds, 0), predictor_(params.numPreds),
      inputs_(params.numInputQueues, nullptr),
      outputs_(params.numOutputQueues, nullptr)
{}

void
PipelinedPe::bindInput(unsigned port, TaggedQueue *queue)
{
    inputs_.at(port) = queue;
}

void
PipelinedPe::bindOutput(unsigned port, TaggedQueue *queue)
{
    outputs_.at(port) = queue;
}

void
PipelinedPe::trace(TraceEventKind kind, std::uint8_t arg,
                   std::uint16_t index, std::uint64_t value) const
{
    trace_->record(
        {counters_.cycles - 1, traceId_, kind, arg, index, value});
}

void
PipelinedPe::traceBucket(TraceBucket bucket) const
{
    trace(TraceEventKind::Attribution, static_cast<std::uint8_t>(bucket));
}

ScheduleResult
PipelinedPe::scheduleReference() const
{
    // Equivalence-pinned slow path (see setUseReferenceScheduler).
    return schedule(program_, preds_, pendingPredMask_,
                    CycleQueueView(*this));
}

void
PipelinedPe::traceSkippedCycles(std::uint64_t n) const
{
    // Retroactive settlement: the first skipped cycle is the one after
    // the last counted cycle. Still in per-PE cycle order (see the
    // ordering note in obs/trace.hh).
    for (std::uint64_t i = 0; i < n; ++i) {
        trace_->record({counters_.cycles + i, traceId_,
                        TraceEventKind::Attribution,
                        static_cast<std::uint8_t>(TraceBucket::NoTrigger),
                        0, 0});
    }
}

void
PipelinedPe::setRegs(const std::vector<Word> &values)
{
    fatalIf(values.size() > regs_.size(),
            "initial register set larger than the register file");
    for (std::size_t i = 0; i < values.size(); ++i)
        regs_[i] = values[i];
}

unsigned
PipelinedPe::inFlight() const
{
    return static_cast<unsigned>(std::popcount(occupied_));
}

PeWaitInfo
PipelinedPe::queueWaits() const
{
    PeWaitInfo info;
    if (halted_)
        return info;

    CycleQueueView view(*this);
    // Dedup with seen-bitmasks (queue indices are below 32 by
    // construction) but append in first-encounter order so the report
    // — and the wait-for graph built from it — is stable.
    std::uint32_t seen_inputs = 0;
    std::uint32_t seen_outputs = 0;
    auto note_input = [&](unsigned q) {
        const std::uint32_t bit = std::uint32_t{1} << q;
        if ((seen_inputs & bit) == 0) {
            seen_inputs |= bit;
            info.waitInputs.push_back(q);
        }
    };

    for (const auto &inst : program_) {
        if (!inst.trigger.valid)
            continue;
        // Only instructions whose predicate condition currently holds
        // can be *waiting* on queues; the rest are simply not eligible.
        if ((inst.trigger.predOn & ~preds_) != 0 ||
            (inst.trigger.predOff & preds_) != 0) {
            continue;
        }
        info.predicateEligible = true;
        if (queueConditionsHold(inst, view)) {
            info.canFire = true;
            continue;
        }
        // Collect every failing queue condition: empty (or wrong-tag)
        // inputs and full outputs.
        for (const auto &check : inst.trigger.queueChecks) {
            const auto tag = view.inputHeadTag(check.queue);
            if (view.inputOccupancy(check.queue) == 0 || !tag ||
                (*tag == check.tag) == check.negate) {
                note_input(check.queue);
            }
        }
        for (const auto &src : inst.srcs) {
            if (src.type == SrcType::InputQueue &&
                view.inputOccupancy(src.index) == 0) {
                note_input(src.index);
            }
        }
        for (auto q : inst.dequeues) {
            if (view.inputOccupancy(q) == 0)
                note_input(q);
        }
        if (inst.dst.type == DstType::OutputQueue &&
            !view.outputHasSpace(inst.dst.index)) {
            const std::uint32_t bit = std::uint32_t{1} << inst.dst.index;
            if ((seen_outputs & bit) == 0) {
                seen_outputs |= bit;
                info.waitOutputs.push_back(inst.dst.index);
            }
        }
    }
    return info;
}

bool
PipelinedPe::dataHazardFor(const Instruction &inst) const
{
    // An older producer at segment s_p writes back at now + (last -
    // s_p); the consumer's first execute phase runs at now + (segX1 -
    // segD). The operand must be registered strictly before that
    // cycle, so a hazard exists iff s_p <= segD + (last - segX1). Older
    // instructions sit past D, so a unified X leaves no such position
    // and a split X exactly one, segD + 1: split-ALU shapes are the
    // only ones with register hazards (one bubble each).
    if (!splitX_)
        return false;
    const unsigned s = segD_ + 1;
    if (((occupied_ >> s) & 1u) == 0)
        return false;
    const Instruction &producer = *slot(s).inst;
    if (producer.dst.type != DstType::Reg)
        return false;
    for (const auto &src : inst.srcs) {
        if (src.type == SrcType::Reg && src.index == producer.dst.index)
            return true;
    }
    return false;
}

Word
PipelinedPe::readSource(const Source &src, Word imm) const
{
    switch (src.type) {
      case SrcType::None:
        return 0;
      case SrcType::Reg:
        return regs_[src.index];
      case SrcType::InputQueue: {
        const TaggedQueue *queue = inputs_[src.index];
        panicIf(queue == nullptr, "read of unbound input queue");
        const Token *token = queue->peekPtr(0);
        panicIf(token == nullptr,
                "read of empty input queue — a hazard check failed");
        return token->data;
      }
      case SrcType::Immediate:
        return imm;
    }
    panic("readSource: bad source type");
}

void
PipelinedPe::doDecode(InFlight &entry)
{
    const Instruction &inst = *entry.inst;
    entry.operands[0] = readSource(inst.srcs[0], inst.imm);
    entry.operands[1] = readSource(inst.srcs[1], inst.imm);
    for (auto q : inst.dequeues) {
        TaggedQueue *queue = inputs_[q];
        panicIf(queue == nullptr, "dequeue of unbound input queue");
        queue->pop();
        panicIf(pendingDeq_[q] == 0, "dequeue accounting underflow");
        --pendingDeq_[q];
        ++counters_.dequeues;
    }
    entry.didD = true;
    if (recording_) [[unlikely]]
        recordAction(entry, false, false);
}

void
PipelinedPe::flushSpeculative()
{
    for (std::uint8_t rest = occupied_; rest != 0; rest &= rest - 1) {
        const unsigned s = static_cast<unsigned>(std::countr_zero(rest));
        const InFlight &entry = slot(s);
        if (!entry.speculative())
            continue;
        const Instruction &inst = *entry.inst;
        panicIf(inst.hasPreRetirementSideEffect(),
                "a side-effecting instruction was issued speculatively");
        if (inst.enqueues()) {
            panicIf(pendingEnq_[inst.dst.index] == 0,
                    "enqueue accounting underflow on flush");
            --pendingEnq_[inst.dst.index];
        }
        ++counters_.quashed;
        if (trace_) [[unlikely]]
            trace(TraceEventKind::Quash, 0,
                  static_cast<std::uint16_t>(entry.index), entry.id);
        occupied_ &= static_cast<std::uint8_t>(~(1u << s));
    }
}

[[gnu::always_inline]] inline bool
PipelinedPe::datapathResult(const Instruction &inst, Word a, Word b,
                            Word &result) const
{
    const OpInfo &info = opInfo(inst.op);
    result = 0;
    if (info.readsScratchpad) {
        const Word address = a + b;
        if (address >= scratchpad_.size())
            return false;
        result = scratchpad_[address];
    } else if (info.writesScratchpad) {
        return a < scratchpad_.size();
    } else {
        result = evalAlu(inst.op, a, b);
    }
    return true;
}

void
PipelinedPe::doWriteback(InFlight &entry)
{
    const Instruction &inst = *entry.inst;
    panicIf(!entry.didD, "writeback before decode");
    panicIf(entry.speculative(),
            "a speculative instruction reached writeback unresolved");

    const Word a = entry.operands[0];
    const Word b = entry.operands[1];
    const OpInfo &info = opInfo(inst.op);

    Word result = 0;
    if (info.isHalt) {
        halted_ = true;
        if (trace_) [[unlikely]]
            trace(TraceEventKind::Halt);
    } else if (!datapathResult(inst, a, b, result)) [[unlikely]] {
        if (info.readsScratchpad) {
            const Word address = a + b;
            fatal("scratchpad load at ", address, " out of bounds");
        }
        fatal("scratchpad store at ", a, " out of bounds");
    } else if (info.writesScratchpad) {
        scratchpad_[a] = b;
    }
    if (recording_) [[unlikely]]
        recordAction(entry, true, (result & 1u) != 0);

    switch (inst.dst.type) {
      case DstType::None:
        break;
      case DstType::Reg:
        regs_[inst.dst.index] = result;
        break;
      case DstType::OutputQueue: {
        TaggedQueue *queue = outputs_[inst.dst.index];
        panicIf(queue == nullptr, "enqueue to unbound output queue");
        queue->push({result, inst.outTag});
        panicIf(pendingEnq_[inst.dst.index] == 0,
                "enqueue accounting underflow");
        --pendingEnq_[inst.dst.index];
        ++counters_.enqueues;
        break;
      }
      case DstType::Predicate: {
        const bool actual = (result & 1u) != 0;
        const std::uint64_t bit = std::uint64_t{1} << inst.dst.index;
        ++counters_.predicateWrites;
        if (entry.isPredictor) {
            panicIf(specContexts_.empty() ||
                        specContexts_.front().id != entry.id,
                    "predictor retired outside its speculation window");
            predictor_.train(inst.dst.index, actual);
            if (trace_) [[unlikely]] {
                const bool mispredicted = actual != entry.predictedValue;
                trace(TraceEventKind::Resolve,
                      static_cast<std::uint8_t>(inst.dst.index), 0,
                      (actual ? 1u : 0u) | (mispredicted ? 2u : 0u) |
                          (mispredicted && entry.faultFlipped ? 4u : 0u));
            }
            if (actual == entry.predictedValue) {
                // Confirmed: this (oldest) context retires; everything
                // issued under it sheds one speculation level.
                specContexts_.erase(specContexts_.begin());
                for (std::uint8_t rest = occupied_; rest != 0;
                     rest &= rest - 1) {
                    InFlight &younger = slot(std::countr_zero(rest));
                    if (younger.specLevel > 0)
                        --younger.specLevel;
                }
            } else {
                ++counters_.mispredictions;
                if (entry.faultFlipped)
                    ++counters_.faultRecoveries;
                // Everything younger — including any nested
                // predictions and their contexts — is wrong-path.
                preds_ = specContexts_.front().fallbackPreds;
                preds_ = (preds_ & ~bit) | (actual ? bit : 0);
                flushSpeculative();
                specContexts_.clear();
                // The squash also claims this cycle's issue slot: the
                // restored predicate state only steers the front end
                // from the next cycle on.
                squashIssueThisCycle_ = true;
            }
        } else {
            panicIf(config_.predictPredicates && lastSeg_ > 0,
                    "unpredicted predicate write under +P");
            // Commits at the end of this cycle; the scheduler keeps
            // seeing the bit as pending until then.
            panicIf(pendingPredCommit_.has_value(),
                    "two predicate writebacks in one cycle");
            pendingPredCommit_ = PredCommit{inst.dst.index, actual};
        }
        break;
      }
    }
    ++counters_.retired;
    if (trace_) [[unlikely]] {
        const std::uint8_t flags = inst.dst.type == DstType::Predicate
                                       ? kRetireWrotePredicate
                                       : 0;
        trace(TraceEventKind::Retire, flags,
              static_cast<std::uint16_t>(entry.index), entry.id);
    }
}

[[gnu::always_inline]] inline ScheduleResult
PipelinedPe::resolveTriggers()
{
    if (referenceScheduler_) [[unlikely]]
        return scheduleReference();
    const bool effective = config_.effectiveQueueStatus;
    // The +Q witness: where the views can disagree, the fetched mask
    // is also taken under the effective view, and a different mask is
    // resolved again below.
    const bool check = !effective && !witness_.effectiveQueueStatus;
    std::optional<std::uint64_t> effectiveFail;
    const ScheduleResult result =
        encoder_.resolve(preds_, pendingPredMask_, [&] {
            const std::uint64_t fail = queueFailMask(effective);
            if (check && queueViewsMayDiffer()) [[unlikely]] {
                if (const std::uint64_t other = queueFailMask(true);
                    other != fail)
                    effectiveFail = other;
            }
            return fail;
        });
    if (effectiveFail.has_value()) [[unlikely]] {
        const ScheduleResult other = encoder_.resolve(
            preds_, pendingPredMask_, [&] { return *effectiveFail; });
        witness_.effectiveQueueStatus =
            other.outcome != result.outcome || other.index != result.index;
    }
    return result;
}

[[gnu::always_inline]] inline void
PipelinedPe::issue()
{
    if (squashIssueThisCycle_) {
        ++counters_.quashed;
        if (trace_) [[unlikely]]
            trace(TraceEventKind::Quash, kQuashIssueSlot);
        return;
    }
    if (haltIssued_) {
        // Scheduler is off while the halt drains.
        ++counters_.noTrigger;
        if (trace_) [[unlikely]]
            traceBucket(TraceBucket::NoTrigger);
        return;
    }
    if ((occupied_ & 1u) != 0) {
        // The only stall source in these pipelines is a register
        // dependence holding an instruction in its decode segment.
        ++counters_.dataHazard;
        if (trace_) [[unlikely]]
            traceBucket(TraceBucket::DataHazard);
        return;
    }

    const ScheduleResult result = resolveTriggers();
    if (result.outcome == ScheduleOutcome::BlockedOnPredicate) {
        ++counters_.predicateHazard;
        if (trace_) [[unlikely]]
            traceBucket(TraceBucket::PredicateHazard);
        return;
    }
    if (result.outcome == ScheduleOutcome::None) {
        ++counters_.noTrigger;
        idleCycle_ = true;
        if (trace_) [[unlikely]]
            traceBucket(TraceBucket::NoTrigger);
        return;
    }

    const Instruction &inst = program_[result.index];
    if (specActive()) {
        // During unconfirmed speculation, pre-retirement side effects
        // are always barred; a further prediction is barred unless
        // nested speculation (+N) is on and a context slot remains.
        const bool nested_ok =
            config_.nestedSpeculation &&
            specContexts_.size() < kMaxNestedSpeculation;
        if (inst.hasPreRetirementSideEffect() || opInfo(inst.op).isHalt ||
            (inst.writesPredicate() && !nested_ok)) {
            ++counters_.forbidden;
            if (trace_) [[unlikely]]
                traceBucket(TraceBucket::Forbidden);
            return;
        }
    }

    // Slot 0 was checked empty above; the lowest free entry takes it.
    unsigned held = 0;
    for (std::uint8_t rest = occupied_; rest != 0; rest &= rest - 1)
        held |= 1u << stage_[std::countr_zero(rest)];
    stage_[0] = static_cast<std::uint8_t>(std::countr_one(held));
    InFlight &entry = slot(0);
    entry = InFlight{};
    occupied_ |= 1u;
    entry.inst = &inst;
    entry.index = result.index;
    entry.id = nextId_++;
    entry.specLevel = static_cast<unsigned>(specContexts_.size());
    if (trace_) [[unlikely]]
        trace(TraceEventKind::Issue,
              static_cast<std::uint8_t>(entry.specLevel),
              static_cast<std::uint16_t>(entry.index), entry.id);

    // Trigger-time predicate update applies at issue.
    preds_ = (preds_ | inst.predSet) & ~inst.predClear;

    if (inst.writesPredicate()) {
        const bool predict =
            config_.predictPredicates && lastSeg_ > 0;
        if (predict) {
            entry.isPredictor = true;
            bool predicted = predictor_.predict(inst.dst.index);
            if (faultInjector_ && faultInjector_->flipPrediction(peId_)) {
                predicted = !predicted;
                entry.faultFlipped = true;
                ++counters_.faultsInjected;
            }
            entry.predictedValue = predicted;
            specContexts_.push_back({entry.id, preds_});
            const std::uint64_t bit = std::uint64_t{1} << inst.dst.index;
            preds_ = (preds_ & ~bit) | (predicted ? bit : 0);
            ++counters_.predictions;
            if (trace_) [[unlikely]]
                trace(TraceEventKind::Predict,
                      static_cast<std::uint8_t>(inst.dst.index), 0,
                      (predicted ? 1u : 0u) |
                          (entry.faultFlipped ? 2u : 0u));
        } else {
            // The one decision +P takes: a writer entering a pipeline.
            witness_.predictPredicates =
                witness_.predictPredicates || lastSeg_ > 0;
            ++pendingPredWrites_[inst.dst.index];
            pendingPredMask_ |= std::uint64_t{1} << inst.dst.index;
        }
    }

    for (auto q : inst.dequeues)
        ++pendingDeq_[q];
    if (inst.enqueues())
        ++pendingEnq_[inst.dst.index];
    if (opInfo(inst.op).isHalt)
        haltIssued_ = true;

    // Segment-0 work happens in the issue cycle.
    if (segD_ == 0) {
        if (!dataHazardFor(inst))
            doDecode(entry);
        // else: stall in slot 0; retried next cycle.
    }
    if (lastSeg_ == 0)
        doWriteback(entry);
}

void
PipelinedPe::step()
{
    if (halted_)
        return;
    ++counters_.cycles;
    idleCycle_ = false;

    // (a) Work pass, oldest first so forwarding sees this cycle's
    // writebacks. Only the decode and writeback segments ever have
    // per-cycle work, so visit exactly those two (one, when fused)
    // instead of scanning every slot.
    const unsigned d = segD_;
    const unsigned last = lastSeg_;
    if ((occupied_ >> last) & 1u) {
        InFlight &entry = slot(last);
        if (last == d && !entry.didD && !dataHazardFor(*entry.inst))
            doDecode(entry);
        if (entry.didD)
            doWriteback(entry);
    }
    if (d != last && ((occupied_ >> d) & 1u) != 0) {
        InFlight &entry = slot(d);
        if (!entry.didD && !dataHazardFor(*entry.inst))
            doDecode(entry);
    }

    // (b) Trigger phase: issue (or attribute the lost cycle).
    issue();

    // Stage occupancy after issue and before advance: what each
    // pipeline segment held while this cycle's work executed.
    if (trace_ && traceLevel_ == TraceLevel::Cycles) [[unlikely]] {
        for (unsigned s = 0; s <= last; ++s) {
            if ((occupied_ >> s) & 1u)
                trace(TraceEventKind::StageOccupancy,
                      static_cast<std::uint8_t>(s),
                      static_cast<std::uint16_t>(slot(s).index),
                      slot(s).id);
        }
    }

    // (c) Advance. Retire writeback-complete instructions, then move
    // everything whose segment work is done and whose next slot is
    // free — walking only the occupied slots, oldest first. An entry
    // stays put; its segment's map index moves.
    const std::uint8_t last_bit = static_cast<std::uint8_t>(1u << last);
    if ((occupied_ & last_bit) != 0 && slot(last).didD)
        occupied_ &= static_cast<std::uint8_t>(~last_bit);
    for (std::uint8_t rest =
             occupied_ & static_cast<std::uint8_t>(last_bit - 1u);
         rest != 0;) {
        const unsigned s = static_cast<unsigned>(std::bit_width(rest)) - 1;
        const std::uint8_t bit = static_cast<std::uint8_t>(1u << s);
        rest &= static_cast<std::uint8_t>(~bit);
        const bool work_done = s != d || slot(s).didD;
        if (work_done && (occupied_ & (bit << 1)) == 0) {
            stage_[s + 1] = stage_[s];
            occupied_ = static_cast<std::uint8_t>(
                (occupied_ | (bit << 1)) & ~bit);
        }
    }

    // (d) Clock edge: commit this cycle's datapath predicate write.
    if (pendingPredCommit_.has_value()) {
        const std::uint64_t bit = std::uint64_t{1}
                                  << pendingPredCommit_->index;
        preds_ = (preds_ & ~bit) | (pendingPredCommit_->value ? bit : 0);
        panicIf(pendingPredWrites_[pendingPredCommit_->index] == 0,
                "predicate-write accounting underflow");
        if (--pendingPredWrites_[pendingPredCommit_->index] == 0)
            pendingPredMask_ &= ~bit;
        pendingPredCommit_.reset();
    }
    squashIssueThisCycle_ = false;
}

// ---------------------------------------------------------------------
// Run-ahead memo (see the file comment of pipelined_pe.hh).
// ---------------------------------------------------------------------

namespace {

void
putByte(std::string &key, std::uint64_t value)
{
    panicIf(value > 0xff, "run-ahead memo: a packed field exceeds a byte");
    key.push_back(static_cast<char>(value));
}

void
putWord(std::string &key, std::uint64_t value)
{
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    key.append(bytes, sizeof value);
}

/** Reads back what putByte/putWord wrote, in order. */
class KeyReader
{
  public:
    explicit KeyReader(const std::string &key) : key_(key) {}

    std::uint8_t
    byte()
    {
        return static_cast<std::uint8_t>(key_[pos_++]);
    }

    std::uint64_t
    word()
    {
        std::uint64_t value;
        std::memcpy(&value, key_.data() + pos_, sizeof value);
        pos_ += sizeof value;
        return value;
    }

  private:
    const std::string &key_;
    std::size_t pos_ = 0;
};

} // namespace

void
PipelinedPe::packControl(std::string &key) const
{
    panicIf(halted_ || pendingPredCommit_.has_value() ||
                squashIssueThisCycle_,
            "run-ahead memo: control state packed mid-cycle");
    putByte(key, occupied_);
    putByte(key, (haltIssued_ ? 1u : 0u) | (idleCycle_ ? 2u : 0u));
    for (std::uint8_t rest = occupied_; rest != 0; rest &= rest - 1) {
        const unsigned s = static_cast<unsigned>(std::countr_zero(rest));
        const InFlight &entry = slot(s);
        putByte(key, stage_[s]);
        putByte(key, entry.index);
        putByte(key, nextId_ - entry.id);
        putByte(key, entry.specLevel | (entry.didD ? 4u : 0u) |
                         (entry.isPredictor ? 8u : 0u) |
                         (entry.predictedValue ? 16u : 0u) |
                         (entry.faultFlipped ? 32u : 0u));
    }
    putWord(key, preds_);
    putWord(key, pendingPredMask_);
    for (std::uint64_t rest = pendingPredMask_; rest != 0; rest &= rest - 1)
        putByte(key, pendingPredWrites_[std::countr_zero(rest)]);
    for (unsigned p = 0; p < predictor_.size(); ++p)
        putByte(key, predictor_.counter(p));
    putByte(key, specContexts_.size());
    for (const SpecContext &context : specContexts_) {
        putByte(key, nextId_ - context.id);
        putWord(key, context.fallbackPreds);
    }
    for (const unsigned pending : pendingDeq_)
        putByte(key, pending);
    for (const unsigned pending : pendingEnq_)
        putByte(key, pending);
}

void
PipelinedPe::settleReplays()
{
    for (const std::uint32_t id : memo_->unsettled) {
        MemoEdge &edge = memo_->nodes[id / 2].edges[id % 2];
        counters_.cycles += edge.pending;
        for (std::size_t i = 0; i < kMemoCounters.size(); ++i)
            counters_.*kMemoCounters[i] += edge.pending * edge.delta[i];
        nextId_ += edge.pending * edge.issued;
        edge.pending = 0;
    }
    memo_->unsettled.clear();
}

void
PipelinedPe::materialize()
{
    // The exact inverse of packControl; operands are data and stay.
    settleReplays();
    KeyReader key(*memo_->nodes[memoNode_].state);
    occupied_ = key.byte();
    const std::uint8_t flags = key.byte();
    haltIssued_ = (flags & 1u) != 0;
    idleCycle_ = (flags & 2u) != 0;
    for (std::uint8_t rest = occupied_; rest != 0; rest &= rest - 1) {
        const unsigned s = static_cast<unsigned>(std::countr_zero(rest));
        stage_[s] = key.byte();
        InFlight &entry = slot(s);
        entry.index = key.byte();
        entry.inst = &program_[entry.index];
        entry.id = nextId_ - key.byte();
        const std::uint8_t bits = key.byte();
        entry.specLevel = bits & 3u;
        entry.didD = (bits & 4u) != 0;
        entry.isPredictor = (bits & 8u) != 0;
        entry.predictedValue = (bits & 16u) != 0;
        entry.faultFlipped = (bits & 32u) != 0;
    }
    preds_ = key.word();
    pendingPredMask_ = key.word();
    std::fill(pendingPredWrites_.begin(), pendingPredWrites_.end(), 0u);
    for (std::uint64_t rest = pendingPredMask_; rest != 0; rest &= rest - 1)
        pendingPredWrites_[std::countr_zero(rest)] = key.byte();
    for (unsigned p = 0; p < predictor_.size(); ++p)
        predictor_.setCounter(p, key.byte());
    specContexts_.resize(key.byte());
    for (SpecContext &context : specContexts_) {
        context.id = nextId_ - key.byte();
        context.fallbackPreds = key.word();
    }
    for (unsigned &pending : pendingDeq_)
        pending = key.byte();
    for (unsigned &pending : pendingEnq_)
        pending = key.byte();
    memoStale_ = false;
}

std::uint32_t
PipelinedPe::findOrAddNode()
{
    std::string key;
    packControl(key);
    key += memo_->view;
    const auto found = memo_->index.find(key);
    if (found != memo_->index.end())
        return found->second;
    if (memo_->nodes.size() >= kMemoNodeCap)
        return kNoMemoNode;
    const auto id = static_cast<std::uint32_t>(memo_->nodes.size());
    const auto inserted = memo_->index.emplace(std::move(key), id).first;
    memo_->nodes.emplace_back().state = &inserted->first;
    return id;
}

void
PipelinedPe::engageMemo(bool sleepEnabled)
{
    if (!memo_)
        memo_ = std::make_unique<RunAheadMemo>();
    // The channel view, constant for the episode: each bound input's
    // occupancy and tags (the scheduler peeks past in-flight dequeues),
    // each bound output's occupancy, and the sleep setting. Queue
    // capacity is unbounded, so occupancies take a word each.
    std::string &view = memo_->view;
    view.clear();
    putByte(view, sleepEnabled ? 1u : 0u);
    for (const TaggedQueue *queue : inputs_) {
        if (!queue)
            continue;
        panicIf(queue->popsThisCycle() != 0 || queue->pendingPushes() != 0,
                "run-ahead memo engaged with a channel in motion");
        putWord(view, queue->size());
        for (unsigned depth = 0; depth < queue->size(); ++depth)
            putByte(view, queue->peekPtr(depth)->tag);
    }
    for (const TaggedQueue *queue : outputs_) {
        if (!queue)
            continue;
        panicIf(queue->pendingPushes() != 0,
                "run-ahead memo engaged with a channel in motion");
        putWord(view, queue->size());
    }
    memoNode_ = findOrAddNode();
}

void
PipelinedPe::recordAction(const InFlight &entry, bool writeback, bool bit)
{
    static constexpr Word kZero = 0;
    MemoRecording &recording = memo_->recording;
    MemoEdge &edge = recording.edge;
    const Instruction &inst = *entry.inst;
    const auto index = static_cast<std::uint8_t>(&entry - entries_.data());
    auto operand = [&](const Source &src) -> const Word * {
        switch (src.type) {
          case SrcType::Reg:
            return &regs_[src.index];
          case SrcType::Immediate:
            return &inst.imm;
          case SrcType::InputQueue:
            return nullptr;
          case SrcType::None:
            break;
        }
        return &kZero;
    };
    MemoAction action;
    action.inst = &inst;
    action.srcs = {operand(inst.srcs[0]), operand(inst.srcs[1])};
    if (inst.dst.type == DstType::Reg)
        action.dst = &regs_[inst.dst.index];
    action.entry = index;
    if (!writeback) {
        panicIf(edge.numActions == edge.actions.size(),
                "run-ahead memo: too many actions in one cycle");
        action.decode = true;
        edge.actions[edge.numActions++] = action;
        return;
    }
    // A writeback leads its cycle (the work pass visits the writeback
    // segment first), after its own same-cycle capture if any; so a
    // replayed writeback that would trap has changed nothing yet.
    const bool fused = edge.numActions == 1 && edge.actions[0].entry == index;
    panicIf(edge.numActions != (fused ? 1u : 0u),
            "run-ahead memo: a writeback after another action");
    if (!fused)
        edge.actions[edge.numActions++] = action;
    edge.actions[0].writeback = true;
    if (inst.writesPredicate()) {
        recording.branch = true;
        recording.bit = bit;
    }
}

bool
PipelinedPe::replayActions(const MemoEdge &edge, unsigned first)
{
    for (unsigned i = first; i < edge.numActions; ++i) {
        const MemoAction &action = edge.actions[i];
        const Instruction &inst = *action.inst;
        InFlight &entry = entries_[action.entry];
        if (action.decode) {
            entry.operands[0] = memoOperand(action, 0);
            entry.operands[1] = memoOperand(action, 1);
        }
        if (action.writeback) {
            const Word a = entry.operands[0];
            const Word b = entry.operands[1];
            Word result;
            if (!datapathResult(inst, a, b, result))
                return false; // First action: nothing has changed.
            if (opInfo(inst.op).writesScratchpad)
                scratchpad_[a] = b;
            if (action.dst)
                *action.dst = result;
        }
    }
    return true;
}

[[gnu::always_inline]] inline const PipelinedPe::MemoEdge *
PipelinedPe::replayCycle()
{
    if (memoNode_ == kNoMemoNode)
        return nullptr;
    MemoNode &node = memo_->nodes[memoNode_];
    if (!node.recorded)
        return nullptr;
    // The cycle's one data-to-control bit, computed before any action.
    // The branch is the edge's first action, and its result goes only
    // to a predicate (control), so all that is left to replay of it is
    // its operand capture.
    unsigned bit = 0;
    unsigned first = 0;
    if (const MemoAction &branch = node.branch; branch.inst) {
        InFlight &entry = entries_[branch.entry];
        const Word a =
            branch.decode ? memoOperand(branch, 0) : entry.operands[0];
        const Word b =
            branch.decode ? memoOperand(branch, 1) : entry.operands[1];
        Word result;
        if (!datapathResult(*branch.inst, a, b, result))
            return nullptr;
        bit = result & 1u;
        if (node.edges[bit].next == kNoMemoNode)
            return nullptr;
        entry.operands = {a, b};
        first = 1;
    }
    MemoEdge &edge = node.edges[bit];
    if (edge.next == kNoMemoNode || !replayActions(edge, first))
        return nullptr;
    if (edge.pending++ == 0)
        memo_->unsettled.push_back(2 * memoNode_ + bit);
    memoNode_ = edge.next;
    memoStale_ = true;
    return &edge;
}

[[gnu::always_inline]] inline bool
PipelinedPe::stepCycle(bool sleepEnabled, std::uint64_t &retired)
{
    // Only a PE the memo follows can have stale control fields.
    const std::uint32_t from = memoNode_;
    if (from != kNoMemoNode) {
        if (memoStale_)
            materialize();
        memo_->recording = {};
        memo_->recording.before = counters_;
        memo_->recording.nextId = nextId_;
        recording_ = true;
    }
    const std::uint64_t retired_before = counters_.retired;
    const std::uint64_t moved_before = counters_.dequeues + counters_.enqueues;
    step();
    recording_ = false;
    retired = counters_.retired - retired_before;

    // The one rule that ends a run-ahead episode: the PE halted, moved
    // a channel (any other agent may now have work), can sleep, or has
    // gone idle.
    const bool moved = counters_.dequeues + counters_.enqueues != moved_before;
    const bool stop = halted_ || moved || (sleepEnabled && canSleep()) ||
                      (retired == 0 && !busy());
    // Pushes, pops and halts end the episode and are never recorded.
    if (from != kNoMemoNode && !halted_ && !moved)
        recordEdge(from, stop);
    return stop;
}

void
PipelinedPe::recordEdge(std::uint32_t from, bool stop)
{
    const MemoRecording &recording = memo_->recording;
    MemoEdge edge = recording.edge;
    edge.issued = static_cast<std::uint8_t>(nextId_ - recording.nextId);
    edge.stop = stop;
    for (std::size_t i = 0; i < kMemoCounters.size(); ++i) {
        const std::uint64_t delta =
            counters_.*kMemoCounters[i] - recording.before.*kMemoCounters[i];
        panicIf(delta > 0xff, "run-ahead memo: a counter delta exceeds a byte");
        edge.delta[i] = static_cast<std::uint8_t>(delta);
    }
    memoNode_ = findOrAddNode();
    if (memoNode_ == kNoMemoNode)
        return; // At the cap: plain steps from here.
    edge.next = memoNode_;

    MemoNode &node = memo_->nodes[from];
    const MemoAction branch =
        recording.branch ? edge.actions[0] : MemoAction{};
    if (!node.recorded) {
        node.recorded = true;
        node.branch = branch;
    }
    panicIf(node.branch.inst != branch.inst ||
                node.branch.entry != branch.entry ||
                node.branch.decode != branch.decode,
            "run-ahead memo: a control state changed its branch");
    node.edges[recording.bit ? 1 : 0] = edge;
}

void
PipelinedPe::runAhead(std::uint64_t maxCycles, bool sleepEnabled,
                      Episode &run)
{
    static_assert(kMemoCounters[0] == &PerfCounters::retired);
    // Counted in a local, which can stay in registers, and handed out
    // however the episode ends.
    Episode done;
    try {
        for (;;) {
            // The reference scheduler must keep resolving every cycle
            // itself, so it never engages the memo.
            if (done.cycles == kMemoThreshold && !referenceScheduler_)
                engageMemo(sleepEnabled);
            bool stop;
            std::uint64_t retired;
            if (const MemoEdge *edge = replayCycle()) {
                ++done.replayed;
                stop = edge->stop;
                retired = edge->delta[0];
            } else {
                stop = stepCycle(sleepEnabled, retired);
            }
            done.lastRetired = retired;
            done.retired += retired;
            if (++done.cycles == maxCycles || stop)
                break;
        }
    } catch (...) {
        // Only step() traps, from a materialized PE: the trap leaves
        // exactly the state the step loop leaves.
        recording_ = false;
        memoNode_ = kNoMemoNode;
        run = done;
        throw;
    }
    run = done;
    if (memoStale_)
        materialize();
    memoNode_ = kNoMemoNode;
}

} // namespace tia
