#include "sim/fabric_config.hh"

namespace tia {

std::vector<ChannelEnds>
FabricConfig::channelEnds() const
{
    fatalIf(inputChannel.size() != numPes ||
                outputChannel.size() != numPes,
            "fabric wiring tables must have one row per PE");

    // Each channel must have exactly one producer and one consumer.
    std::vector<ChannelEnds> ends(numChannels);
    std::vector<unsigned> producers(numChannels, 0);
    std::vector<unsigned> consumers(numChannels, 0);
    auto produce = [&](unsigned ch, ChannelEnd end) {
        ends[ch].producer = end;
        ++producers[ch];
    };
    auto consume = [&](unsigned ch, ChannelEnd end) {
        ends[ch].consumer = end;
        ++consumers[ch];
    };

    for (unsigned pe = 0; pe < numPes; ++pe) {
        fatalIf(inputChannel[pe].size() != params.numInputQueues,
                "PE ", pe, " input table size mismatch");
        fatalIf(outputChannel[pe].size() != params.numOutputQueues,
                "PE ", pe, " output table size mismatch");
        for (unsigned port = 0; port < inputChannel[pe].size(); ++port) {
            const int ch = inputChannel[pe][port];
            if (ch == kUnbound)
                continue;
            fatalIf(ch < 0 || static_cast<unsigned>(ch) >= numChannels,
                    "PE ", pe, " input bound to nonexistent channel ", ch);
            consume(ch, {ChannelEnd::Kind::Pe, pe, port});
        }
        for (unsigned port = 0; port < outputChannel[pe].size(); ++port) {
            const int ch = outputChannel[pe][port];
            if (ch == kUnbound)
                continue;
            fatalIf(ch < 0 || static_cast<unsigned>(ch) >= numChannels,
                    "PE ", pe, " output bound to nonexistent channel ", ch);
            produce(ch, {ChannelEnd::Kind::Pe, pe, port});
        }
    }
    for (unsigned rp = 0; rp < readPorts.size(); ++rp) {
        const ReadPortSpec &port = readPorts[rp];
        fatalIf(port.addrChannel >= numChannels ||
                    port.dataChannel >= numChannels,
                "read port bound to nonexistent channel");
        consume(port.addrChannel, {ChannelEnd::Kind::ReadPort, rp, 0});
        produce(port.dataChannel, {ChannelEnd::Kind::ReadPort, rp, 0});
    }
    for (unsigned wp = 0; wp < writePorts.size(); ++wp) {
        const WritePortSpec &port = writePorts[wp];
        fatalIf(port.addrChannel >= numChannels ||
                    port.dataChannel >= numChannels,
                "write port bound to nonexistent channel");
        consume(port.addrChannel, {ChannelEnd::Kind::WritePort, wp, 0});
        consume(port.dataChannel, {ChannelEnd::Kind::WritePort, wp, 1});
    }

    for (unsigned ch = 0; ch < numChannels; ++ch) {
        fatalIf(producers[ch] == 0, "channel ", ch, " has no producer");
        fatalIf(consumers[ch] == 0, "channel ", ch, " has no consumer");
        fatalIf(producers[ch] != 1, "channel ", ch, " has ", producers[ch],
                " producers (exactly one required)");
        fatalIf(consumers[ch] != 1, "channel ", ch, " has ", consumers[ch],
                " consumers (exactly one required)");
    }
    return ends;
}

void
FabricConfig::validate() const
{
    params.validate();
    fatalIf(numPes == 0, "fabric needs at least one PE");
    channelEnds();

    fatalIf(initialRegs.size() > numPes,
            "more initial register sets than PEs");
    for (const auto &regs : initialRegs) {
        fatalIf(regs.size() > params.numRegs,
                "initial register set larger than the register file");
    }
    for (std::uint64_t preds : initialPreds) {
        const std::uint64_t mask =
            params.numPreds >= 64
                ? ~std::uint64_t{0}
                : ((std::uint64_t{1} << params.numPreds) - 1);
        fatalIf((preds & ~mask) != 0,
                "initial predicate state uses nonexistent predicates");
    }
}

} // namespace tia
