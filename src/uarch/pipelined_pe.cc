#include "uarch/pipelined_pe.hh"

#include <bit>

#include "core/logging.hh"
#include "core/opcode.hh"
#include "sim/fault.hh"
#include "uarch/fabric_memo.hh"

namespace tia {

bool
PipelinedPe::queueViewsMayDiffer() const
{
    // An unbound queue reads the same under both views, and one no
    // trigger names changes no resolution.
    for (unsigned q = 0; q < inputs_.size(); ++q) {
        if (inputs_[q] &&
            (pendingDeq_[q] != 0 || inputs_[q]->popsThisCycle() != 0))
            return true;
    }
    for (unsigned q = 0; q < outputs_.size(); ++q) {
        if (outputs_[q] &&
            (pendingEnq_[q] != 0 || outputs_[q]->pendingPushes() != 0))
            return true;
    }
    return false;
}

/**
 * The PE's scheduler queue status under the conservative or the
 * effective view, as the queue view (sim/scheduler.hh) that schedule()
 * and queueWaits read.
 */
class CycleQueueView
{
  public:
    CycleQueueView(const PipelinedPe &pe, bool effective)
        : pe_(pe), effective_(effective)
    {}

    const Token *
    inputHead(unsigned q) const
    {
        return pe_.schedInputHead(q, effective_);
    }

    bool
    outputHasSpace(unsigned q) const
    {
        return pe_.schedOutputHasSpace(q, effective_);
    }

  private:
    const PipelinedPe &pe_;
    const bool effective_;
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
    // instruction can name, so the per-cycle paths index the per-PE
    // arrays without range checks; queueWaits also keeps a bit per
    // queue in a 32-bit mask.
    for (const auto &inst : program) {
        inst.validate(params);
        auto check_queue = [&](unsigned q) {
            fatalIf(q >= 32, "line ", inst.line, ": queue index ", q,
                    " exceeds the cycle model's 32 queues");
        };
        for (const auto &check : inst.trigger.queueChecks)
            check_queue(check.queue);
        for (const auto &src : inst.srcs) {
            if (src.type == SrcType::InputQueue)
                check_queue(src.index);
        }
        for (const auto q : inst.dequeues)
            check_queue(q);
        if (inst.dst.type == DstType::OutputQueue)
            check_queue(inst.dst.index);
    }
    return program;
}

} // namespace

PipelinedPe::PipelinedPe(const ArchParams &params, const PeConfig &config,
                         std::vector<Instruction> program)
    : params_(params), config_(config), segD_(config.shape.segD()),
      lastSeg_(config.shape.depth() - 1), splitX_(config.shape.splitX),
      program_(checkedProgram(params, config, std::move(program))),
      regs_(params.numRegs, 0), scratchpad_(params.scratchpadWords, 0),
      pendingDeq_(params.numInputQueues, 0),
      pendingEnq_(params.numOutputQueues, 0), predictor_(params.numPreds),
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

    const CycleQueueView view(*this, config_.effectiveQueueStatus);
    // Dedup with seen-bitmasks (queue indices are below 32 by
    // construction) but append in first-encounter order so the report
    // — and the wait-for graph built from it — is stable.
    std::uint32_t seen_inputs = 0;
    std::uint32_t seen_outputs = 0;
    auto note = [&](PortKind kind, unsigned q) {
        const bool input = kind == PortKind::Input;
        std::uint32_t &seen = input ? seen_inputs : seen_outputs;
        const std::uint32_t bit = std::uint32_t{1} << q;
        if ((seen & bit) == 0) {
            seen |= bit;
            (input ? info.waitInputs : info.waitOutputs).push_back(q);
        }
        return true; // collect every failing condition
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
        if (queueConditionsHold(inst, view, note))
            info.canFire = true;
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
        const Token *token = queue->peek();
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
    if (recorder_) [[unlikely]]
        recorder_->recordDecode(*this, entry);
}

void
PipelinedPe::flushYounger()
{
    const std::uint8_t younger =
        occupied_ & static_cast<std::uint8_t>(~(1u << lastSeg_));
    for (std::uint8_t rest = younger; rest != 0; rest &= rest - 1) {
        const unsigned s = static_cast<unsigned>(std::countr_zero(rest));
        const InFlight &entry = slot(s);
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
    }
    occupied_ &= static_cast<std::uint8_t>(~younger);
}

void
PipelinedPe::doWriteback(InFlight &entry)
{
    const Instruction &inst = *entry.inst;
    panicIf(!entry.didD, "writeback before decode");

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
    if (recorder_) [[unlikely]]
        recorder_->recordWriteback(*this, entry, result);

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
            // The oldest in flight, so every other entry was issued
            // under this prediction.
            entry.isPredictor = false;
            predictor_.train(inst.dst.index, actual);
            if (trace_) [[unlikely]] {
                const bool mispredicted = actual != entry.predictedValue;
                trace(TraceEventKind::Resolve,
                      static_cast<std::uint8_t>(inst.dst.index), 0,
                      (actual ? 1u : 0u) | (mispredicted ? 2u : 0u) |
                          (mispredicted && entry.faultFlipped ? 4u : 0u));
            }
            if (actual != entry.predictedValue) {
                ++counters_.mispredictions;
                if (entry.faultFlipped)
                    ++counters_.faultRecoveries;
                // Everything younger — including any nested
                // predictions — is wrong-path.
                preds_ = (entry.fallbackPreds & ~bit) | (actual ? bit : 0);
                flushYounger();
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
PipelinedPe::resolveTriggers(std::uint64_t pending_preds)
{
    const bool effective = config_.effectiveQueueStatus;
    const ScheduleResult result =
        schedule(program_, preds_, pending_preds,
                 CycleQueueView(*this, effective));
    // The +Q witness: where the two views can disagree, resolve again
    // under the effective view.
    if (!effective && !witness_.effectiveQueueStatus &&
        queueViewsMayDiffer()) [[unlikely]] {
        const ScheduleResult other =
            schedule(program_, preds_, pending_preds,
                     CycleQueueView(*this, true));
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
    // Read off the entries in flight: a halt draining, the predicate
    // bits unpredicted writers will write, and the predictions still
    // unresolved. This PE predicts every predicate writer or none; an
    // entry that wrote back this cycle is still in flight here, as its
    // predicate write lands only at the clock edge.
    const bool predict = config_.predictPredicates && lastSeg_ > 0;
    bool halt_in_flight = false;
    std::uint64_t pending_preds = 0;
    unsigned predictions = 0;
    for (std::uint8_t rest = occupied_; rest != 0; rest &= rest - 1) {
        const InFlight &entry = slot(std::countr_zero(rest));
        const Instruction &inst = *entry.inst;
        halt_in_flight = halt_in_flight || opInfo(inst.op).isHalt;
        if (inst.writesPredicate() && !predict)
            pending_preds |= std::uint64_t{1} << inst.dst.index;
        predictions += entry.isPredictor ? 1u : 0u;
    }
    if (halt_in_flight) {
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

    const ScheduleResult result = resolveTriggers(pending_preds);
    if (result.outcome == ScheduleOutcome::BlockedOnPredicate) {
        ++counters_.predicateHazard;
        if (trace_) [[unlikely]]
            traceBucket(TraceBucket::PredicateHazard);
        return;
    }
    if (result.outcome == ScheduleOutcome::None) {
        ++counters_.noTrigger;
        if (trace_) [[unlikely]]
            traceBucket(TraceBucket::NoTrigger);
        return;
    }

    const Instruction &inst = program_[result.index];
    if (predictions > 0) {
        // During unconfirmed speculation, pre-retirement side effects
        // are always barred; a further prediction is barred unless
        // nested speculation (+N) is on and below its limit.
        const bool nested_ok = config_.nestedSpeculation &&
                               predictions < kMaxNestedSpeculation;
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
    if (trace_) [[unlikely]]
        trace(TraceEventKind::Issue, static_cast<std::uint8_t>(predictions),
              static_cast<std::uint16_t>(entry.index), entry.id);

    // Trigger-time predicate update applies at issue.
    preds_ = (preds_ | inst.predSet) & ~inst.predClear;

    if (inst.writesPredicate()) {
        if (predict) {
            entry.isPredictor = true;
            bool predicted = predictor_.predict(inst.dst.index);
            if (faultInjector_ && faultInjector_->flipPrediction(peId_)) {
                predicted = !predicted;
                entry.faultFlipped = true;
                ++counters_.faultsInjected;
            }
            entry.predictedValue = predicted;
            entry.fallbackPreds = preds_;
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
        }
    }

    for (auto q : inst.dequeues)
        ++pendingDeq_[q];
    if (inst.enqueues())
        ++pendingEnq_[inst.dst.index];

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
        pendingPredCommit_.reset();
    }
    squashIssueThisCycle_ = false;
}

// ---------------------------------------------------------------------
// Control state for the fabric memo (see uarch/fabric_memo.hh).
// ---------------------------------------------------------------------

std::size_t
PipelinedPe::controlKeyBytes() const
{
    const std::size_t pred_bytes = (params_.numPreds + 7) / 8;
    return 1 + (4 + pred_bytes) * entries_.size() + pred_bytes +
           predictor_.size() + pendingDeq_.size() + pendingEnq_.size();
}

void
PipelinedPe::packControl(char *&out) const
{
    panicIf(halted_ || pendingPredCommit_.has_value() ||
                squashIssueThisCycle_,
            "control memo: control state packed mid-cycle");
    const unsigned pred_bytes = (params_.numPreds + 7) / 8;
    // The entries imply the rest of the pipeline's state: a halt in
    // flight, the pending predicate writes, and each entry's
    // speculation depth (its older predictors).
    putByte(out, occupied_);
    for (std::uint8_t rest = occupied_; rest != 0; rest &= rest - 1) {
        const unsigned s = static_cast<unsigned>(std::countr_zero(rest));
        const InFlight &entry = slot(s);
        putByte(out, stage_[s]);
        putByte(out, entry.index);
        putByte(out, nextId_ - entry.id);
        putByte(out, (entry.didD ? 1u : 0u) | (entry.isPredictor ? 2u : 0u) |
                         (entry.predictedValue ? 4u : 0u) |
                         (entry.faultFlipped ? 8u : 0u));
        if (entry.isPredictor)
            putBytes(out, entry.fallbackPreds, pred_bytes);
    }
    putBytes(out, preds_, pred_bytes);
    for (unsigned p = 0; p < predictor_.size(); ++p)
        putByte(out, predictor_.counter(p));
    for (const unsigned pending : pendingDeq_)
        putByte(out, pending);
    for (const unsigned pending : pendingEnq_)
        putByte(out, pending);
}

void
PipelinedPe::unpackControl(KeyReader &key)
{
    // The exact inverse of packControl; operands are data and stay.
    const unsigned pred_bytes = (params_.numPreds + 7) / 8;
    occupied_ = key.byte();
    for (std::uint8_t rest = occupied_; rest != 0; rest &= rest - 1) {
        const unsigned s = static_cast<unsigned>(std::countr_zero(rest));
        stage_[s] = key.byte();
        InFlight &entry = slot(s);
        entry.index = key.byte();
        entry.inst = &program_[entry.index];
        entry.id = nextId_ - key.byte();
        const std::uint8_t bits = key.byte();
        entry.didD = (bits & 1u) != 0;
        entry.isPredictor = (bits & 2u) != 0;
        entry.predictedValue = (bits & 4u) != 0;
        entry.faultFlipped = (bits & 8u) != 0;
        if (entry.isPredictor)
            entry.fallbackPreds = key.bytes(pred_bytes);
    }
    preds_ = key.bytes(pred_bytes);
    for (unsigned p = 0; p < predictor_.size(); ++p)
        predictor_.setCounter(p, key.byte());
    for (unsigned &pending : pendingDeq_)
        pending = key.byte();
    for (unsigned &pending : pendingEnq_)
        pending = key.byte();
}

} // namespace tia
