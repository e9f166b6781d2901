/**
 * @file
 * Declarative wiring of a spatial fabric: PEs, channels, memory ports.
 *
 * A FabricConfig is the C++ analogue of the paper toolchain's array
 * configuration: it says how many PEs exist, which channels connect
 * which PE ports, which channels terminate at memory read/write ports,
 * and what initial register state each PE starts with. Both the
 * functional and the cycle-accurate fabrics consume the same config,
 * which is what makes the functional-vs-cycle equivalence tests
 * meaningful.
 */

#ifndef TIA_SIM_FABRIC_CONFIG_HH
#define TIA_SIM_FABRIC_CONFIG_HH

#include <cstdint>
#include <vector>

#include "core/logging.hh"
#include "core/params.hh"
#include "core/types.hh"

namespace tia {

/** Sentinel for an unconnected PE port. */
inline constexpr int kUnbound = -1;

/** A memory read port: addresses arrive on one channel, data leaves on another. */
struct ReadPortSpec
{
    unsigned addrChannel;
    unsigned dataChannel;
};

/** A memory write port: paired address and data channels. */
struct WritePortSpec
{
    unsigned addrChannel;
    unsigned dataChannel;
};

/**
 * One end of a channel: a PE port, a memory read port, or one side of
 * a memory write port.
 */
struct ChannelEnd
{
    enum class Kind : std::uint8_t
    {
        Pe,
        ReadPort,
        WritePort,
    };

    Kind kind;
    /** PE, read-port or write-port number. */
    unsigned index;
    /**
     * The PE's port number; for a write port, 0 for its address side
     * and 1 for its data side; 0 for a read port.
     */
    unsigned port;

    bool operator==(const ChannelEnd &) const = default;
};

/** The producer and the consumer of one channel. */
struct ChannelEnds
{
    ChannelEnd producer;
    ChannelEnd consumer;
};

/** Complete wiring description of a fabric. */
struct FabricConfig
{
    ArchParams params;
    unsigned numPes = 1;
    unsigned numChannels = 0;
    /** Memory response latency in cycles (4 on the paper's test system). */
    unsigned memLatency = 4;
    /** Data memory size in words. */
    std::size_t memoryWords = 65536;

    /** inputChannel[pe][port] = channel index or kUnbound. */
    std::vector<std::vector<int>> inputChannel;
    /** outputChannel[pe][port] = channel index or kUnbound. */
    std::vector<std::vector<int>> outputChannel;

    std::vector<ReadPortSpec> readPorts;
    std::vector<WritePortSpec> writePorts;

    /** Initial register file contents per PE (missing entries are 0). */
    std::vector<std::vector<Word>> initialRegs;
    /** Initial predicate state per PE (default all clear). */
    std::vector<std::uint64_t> initialPreds;

    /** Validate wiring: ranges, single producer / single consumer. */
    void validate() const;

    /**
     * Each channel's producer and consumer, indexed by channel. The
     * one place the wiring tables and memory ports are read as channel
     * ends: throws FatalError, as validate() does, for a binding to a
     * nonexistent channel or a channel without exactly one producer
     * and one consumer.
     */
    std::vector<ChannelEnds> channelEnds() const;
};

/** Convenience builder for fabric configurations. */
class FabricBuilder
{
  public:
    explicit FabricBuilder(const ArchParams &params, unsigned num_pes)
    {
        config_.params = params;
        config_.numPes = num_pes;
        config_.inputChannel.assign(
            num_pes, std::vector<int>(params.numInputQueues, kUnbound));
        config_.outputChannel.assign(
            num_pes, std::vector<int>(params.numOutputQueues, kUnbound));
        config_.initialRegs.assign(num_pes, {});
        config_.initialPreds.assign(num_pes, 0);
    }

    /** Allocate a fresh channel and return its index. */
    unsigned
    newChannel()
    {
        return config_.numChannels++;
    }

    /** Connect PE @p producer output port to PE @p consumer input port. */
    unsigned
    connect(unsigned producer, unsigned out_port, unsigned consumer,
            unsigned in_port)
    {
        const unsigned ch = newChannel();
        bindOutput(producer, out_port, ch);
        bindInput(consumer, in_port, ch);
        return ch;
    }

    void
    bindInput(unsigned pe, unsigned port, unsigned channel)
    {
        config_.inputChannel.at(pe).at(port) = static_cast<int>(channel);
    }

    void
    bindOutput(unsigned pe, unsigned port, unsigned channel)
    {
        config_.outputChannel.at(pe).at(port) = static_cast<int>(channel);
    }

    /**
     * Attach a memory read port: PE @p pe sends addresses from output
     * port @p addr_out and receives data on input port @p data_in.
     */
    void
    addReadPort(unsigned pe, unsigned addr_out, unsigned data_in)
    {
        const unsigned addr_ch = newChannel();
        const unsigned data_ch = newChannel();
        bindOutput(pe, addr_out, addr_ch);
        bindInput(pe, data_in, data_ch);
        config_.readPorts.push_back({addr_ch, data_ch});
    }

    /**
     * Attach a memory write port: PE @p pe sends addresses from
     * @p addr_out and data words from @p data_out.
     */
    void
    addWritePort(unsigned pe, unsigned addr_out, unsigned data_out)
    {
        addWritePortSplit(pe, addr_out, pe, data_out);
    }

    /**
     * Attach a memory write port whose address and data streams come
     * from different PEs (e.g. the paper's `stream` benchmark, where
     * one PE produces store indices and another store values).
     */
    void
    addWritePortSplit(unsigned addr_pe, unsigned addr_out,
                      unsigned data_pe, unsigned data_out)
    {
        const unsigned addr_ch = newChannel();
        const unsigned data_ch = newChannel();
        bindOutput(addr_pe, addr_out, addr_ch);
        bindOutput(data_pe, data_out, data_ch);
        config_.writePorts.push_back({addr_ch, data_ch});
    }

    void
    setInitialRegs(unsigned pe, std::vector<Word> regs)
    {
        fatalIf(regs.size() > config_.params.numRegs,
                "initial register set larger than the register file");
        config_.initialRegs.at(pe) = std::move(regs);
    }

    void
    setInitialPreds(unsigned pe, std::uint64_t preds)
    {
        config_.initialPreds.at(pe) = preds;
    }

    void setMemoryWords(std::size_t words) { config_.memoryWords = words; }

    /** Finalize and validate. */
    FabricConfig
    build() const
    {
        config_.validate();
        return config_;
    }

  private:
    FabricConfig config_;
};

} // namespace tia

#endif // TIA_SIM_FABRIC_CONFIG_HH
