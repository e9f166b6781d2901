#include "cache/serialize.hh"

namespace tia {

void
serializeArchParams(ByteWriter &out, const ArchParams &params)
{
    out.u32(params.numRegs);
    out.u32(params.numInputQueues);
    out.u32(params.numOutputQueues);
    out.u32(params.maxCheck);
    out.u32(params.maxDeq);
    out.u32(params.numPreds);
    out.u32(params.wordWidth);
    out.u32(params.tagWidth);
    out.u32(params.numInstructions);
    out.u32(params.numOps);
    out.u32(params.numSrcs);
    out.u32(params.numDsts);
    out.u32(params.queueCapacity);
    out.u32(params.scratchpadWords);
}

void
serializeInstruction(ByteWriter &out, const Instruction &inst)
{
    // Everything Instruction::operator== compares, in declaration
    // order; the diagnostic line number is deliberately excluded (two
    // programs that differ only in source layout run identically).
    out.u8(inst.trigger.valid ? 1 : 0);
    out.u64(inst.trigger.predOn);
    out.u64(inst.trigger.predOff);
    out.u64(inst.trigger.queueChecks.size());
    for (const QueueCheck &check : inst.trigger.queueChecks) {
        out.u8(check.queue);
        out.u8(static_cast<std::uint8_t>(check.tag));
        out.u8(check.negate ? 1 : 0);
    }
    out.u32(static_cast<std::uint32_t>(inst.op));
    for (const Source &src : inst.srcs) {
        out.u8(static_cast<std::uint8_t>(src.type));
        out.u8(src.index);
    }
    out.u8(static_cast<std::uint8_t>(inst.dst.type));
    out.u8(inst.dst.index);
    out.u8(static_cast<std::uint8_t>(inst.outTag));
    out.u64(inst.dequeues.size());
    for (std::uint8_t q : inst.dequeues)
        out.u8(q);
    out.u64(inst.predSet);
    out.u64(inst.predClear);
    out.u32(inst.imm);
}

void
serializeProgram(ByteWriter &out, const Program &program)
{
    serializeArchParams(out, program.params);
    out.u64(program.pes.size());
    for (const auto &store : program.pes) {
        out.u64(store.size());
        for (const Instruction &inst : store)
            serializeInstruction(out, inst);
    }
}

void
serializeFabricConfig(ByteWriter &out, const FabricConfig &config)
{
    serializeArchParams(out, config.params);
    out.u32(config.numPes);
    out.u32(config.numChannels);
    out.u32(config.memLatency);
    out.u64(config.memoryWords);

    const auto portTable = [&out](const std::vector<std::vector<int>> &t) {
        out.u64(t.size());
        for (const auto &ports : t) {
            out.u64(ports.size());
            for (int channel : ports)
                out.u32(static_cast<std::uint32_t>(channel));
        }
    };
    portTable(config.inputChannel);
    portTable(config.outputChannel);

    out.u64(config.readPorts.size());
    for (const ReadPortSpec &port : config.readPorts) {
        out.u32(port.addrChannel);
        out.u32(port.dataChannel);
    }
    out.u64(config.writePorts.size());
    for (const WritePortSpec &port : config.writePorts) {
        out.u32(port.addrChannel);
        out.u32(port.dataChannel);
    }

    out.u64(config.initialRegs.size());
    for (const auto &regs : config.initialRegs) {
        out.u64(regs.size());
        for (Word w : regs)
            out.u32(w);
    }
    out.u64(config.initialPreds.size());
    for (std::uint64_t preds : config.initialPreds)
        out.u64(preds);
}

void
serializePeConfig(ByteWriter &out, const PeConfig &uarch)
{
    out.u8(uarch.shape.splitTD ? 1 : 0);
    out.u8(uarch.shape.splitDX ? 1 : 0);
    out.u8(uarch.shape.splitX ? 1 : 0);
    out.u8(uarch.predictPredicates ? 1 : 0);
    out.u8(uarch.effectiveQueueStatus ? 1 : 0);
    out.u8(uarch.nestedSpeculation ? 1 : 0);
}

void
serializeFaultPlan(ByteWriter &out, const FaultPlan *plan)
{
    if (plan == nullptr || plan->empty()) {
        // Absent and empty plans are the same computation: the
        // injector is not constructed for either.
        out.u8(0);
        return;
    }
    out.u8(1);
    out.u64(plan->seed);
    out.str(plan->toString());
}

} // namespace tia
