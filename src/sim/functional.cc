#include "sim/functional.hh"

#include "core/logging.hh"
#include "core/opcode.hh"

namespace tia {

namespace {

/** Live-occupancy queue view for the functional PE (sim/scheduler.hh). */
class FunctionalQueueView
{
  public:
    FunctionalQueueView(const std::vector<TaggedQueue *> &inputs,
                        const std::vector<TaggedQueue *> &outputs)
        : inputs_(inputs), outputs_(outputs)
    {
    }

    const Token *
    inputHead(unsigned q) const
    {
        const TaggedQueue *queue = inputs_.at(q);
        return queue ? queue->peek() : nullptr;
    }

    bool
    outputHasSpace(unsigned q) const
    {
        const TaggedQueue *queue = outputs_.at(q);
        return queue && queue->size() < queue->capacity();
    }

  private:
    const std::vector<TaggedQueue *> &inputs_;
    const std::vector<TaggedQueue *> &outputs_;
};

} // namespace

FunctionalPe::FunctionalPe(const ArchParams &params,
                           std::vector<Instruction> program)
    : params_(params), program_(std::move(program)),
      regs_(params.numRegs, 0), scratchpad_(params.scratchpadWords, 0),
      inputs_(params.numInputQueues, nullptr),
      outputs_(params.numOutputQueues, nullptr)
{
    fatalIf(program_.size() > params_.numInstructions,
            "program exceeds the PE instruction store");
}

void
FunctionalPe::bindInput(unsigned port, TaggedQueue *queue)
{
    inputs_.at(port) = queue;
}

void
FunctionalPe::bindOutput(unsigned port, TaggedQueue *queue)
{
    outputs_.at(port) = queue;
}

void
FunctionalPe::setRegs(const std::vector<Word> &values)
{
    fatalIf(values.size() > regs_.size(),
            "initial register set larger than the register file");
    for (std::size_t i = 0; i < values.size(); ++i)
        regs_[i] = values[i];
}

Word
FunctionalPe::readSource(const Source &src, Word imm) const
{
    switch (src.type) {
      case SrcType::None:
        return 0;
      case SrcType::Reg:
        return regs_.at(src.index);
      case SrcType::InputQueue: {
        const TaggedQueue *queue = inputs_.at(src.index);
        panicIf(queue == nullptr, "read of unbound input queue");
        const Token *token = queue->peek();
        panicIf(token == nullptr, "read of empty input queue");
        return token->data;
      }
      case SrcType::Immediate:
        return imm;
    }
    panic("readSource: bad source type");
}

void
FunctionalPe::executeDatapath(const Instruction &inst)
{
    const Word a = readSource(inst.srcs[0], inst.imm);
    const Word b = readSource(inst.srcs[1], inst.imm);

    // Dequeues take effect after operand capture.
    for (auto q : inst.dequeues) {
        TaggedQueue *queue = inputs_.at(q);
        panicIf(queue == nullptr, "dequeue of unbound input queue");
        queue->pop();
    }

    Word result = 0;
    const OpInfo &info = opInfo(inst.op);
    if (info.isHalt) {
        halted_ = true;
    } else if (info.readsScratchpad) {
        const Word address = a + b;
        fatalIf(address >= scratchpad_.size(), "scratchpad load at ",
                address, " out of bounds");
        result = scratchpad_[address];
    } else if (info.writesScratchpad) {
        fatalIf(a >= scratchpad_.size(), "scratchpad store at ", a,
                " out of bounds");
        scratchpad_[a] = b;
    } else {
        result = evalAlu(inst.op, a, b);
    }

    switch (inst.dst.type) {
      case DstType::None:
        break;
      case DstType::Reg:
        regs_.at(inst.dst.index) = result;
        break;
      case DstType::OutputQueue: {
        TaggedQueue *queue = outputs_.at(inst.dst.index);
        panicIf(queue == nullptr, "enqueue to unbound output queue");
        queue->pushImmediate({result, inst.outTag});
        break;
      }
      case DstType::Predicate: {
        const std::uint64_t bit = std::uint64_t{1} << inst.dst.index;
        preds_ = (preds_ & ~bit) | ((result & 1u) ? bit : 0);
        ++predWrites_;
        break;
      }
    }
}

bool
FunctionalPe::step()
{
    if (halted_)
        return false;

    FunctionalQueueView view(inputs_, outputs_);
    const ScheduleResult result = schedule(program_, preds_, 0, view);
    if (result.outcome != ScheduleOutcome::Fire)
        return false;

    const Instruction &inst = program_[result.index];

    // Trigger-time predicate update (applies "within a cycle of the
    // instruction trigger", Section 2.2).
    preds_ = (preds_ | inst.predSet) & ~inst.predClear;

    executeDatapath(inst);
    ++retired_;
    return true;
}

FunctionalFabric::FunctionalFabric(const FabricConfig &config,
                                   const Program &program)
    : config_(config), memory_(config.memoryWords)
{
    config_.validate();
    fatalIf(program.numPes() > config_.numPes,
            "program targets ", program.numPes(),
            " PEs but the fabric has ", config_.numPes);

    for (unsigned ch = 0; ch < config_.numChannels; ++ch) {
        channels_.push_back(
            std::make_unique<TaggedQueue>(config_.params.queueCapacity));
    }

    for (unsigned pe = 0; pe < config_.numPes; ++pe) {
        std::vector<Instruction> insts;
        if (pe < program.numPes())
            insts = program.pes[pe];
        auto functional =
            std::make_unique<FunctionalPe>(config_.params, std::move(insts));
        for (unsigned port = 0; port < config_.params.numInputQueues;
             ++port) {
            const int ch = config_.inputChannel[pe][port];
            if (ch != kUnbound)
                functional->bindInput(port, channels_[ch].get());
        }
        for (unsigned port = 0; port < config_.params.numOutputQueues;
             ++port) {
            const int ch = config_.outputChannel[pe][port];
            if (ch != kUnbound)
                functional->bindOutput(port, channels_[ch].get());
        }
        if (pe < config_.initialRegs.size())
            functional->setRegs(config_.initialRegs[pe]);
        if (pe < config_.initialPreds.size())
            functional->setPreds(config_.initialPreds[pe]);
        pes_.push_back(std::move(functional));
    }

    for (const auto &spec : config_.readPorts) {
        readPorts_.push_back(std::make_unique<MemoryReadPort>(
            memory_, *channels_[spec.addrChannel],
            *channels_[spec.dataChannel], config_.memLatency));
    }
    for (const auto &spec : config_.writePorts) {
        writePorts_.push_back(std::make_unique<MemoryWritePort>(
            memory_, *channels_[spec.addrChannel],
            *channels_[spec.dataChannel]));
    }
}

RunStatus
FunctionalFabric::run(std::uint64_t max_steps)
{
    for (std::uint64_t pass = 0; pass < max_steps; ++pass) {
        bool progress = false;
        bool all_halted = true;
        for (auto &pe : pes_) {
            progress |= pe->step();
            all_halted &= pe->halted();
        }
        for (auto &port : readPorts_)
            progress |= port->serviceOne();
        for (auto &port : writePorts_)
            progress |= port->serviceOne();
        if (all_halted && !progress)
            return RunStatus::Halted;
        if (!progress)
            return RunStatus::Quiescent;
    }
    return RunStatus::StepLimit;
}

} // namespace tia
