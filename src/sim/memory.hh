/**
 * @file
 * Word-addressable data memory and its queue-endpoint access ports.
 *
 * The paper's architecture performs main-memory operations "explicitly
 * via the queues using read and write ports as endpoints for designated
 * channels" (Section 2.2). A read port consumes address tokens from one
 * channel and produces data tokens on another after a fixed latency
 * (4 cycles on the paper's Zynq test system); the response tag echoes
 * the request tag so programs can thread semantic information through
 * memory. A write port consumes paired address and data tokens.
 */

#ifndef TIA_SIM_MEMORY_HH
#define TIA_SIM_MEMORY_HH

#include <algorithm>
#include <cstddef>
#include <deque>
#include <memory>
#include <vector>

#include "core/logging.hh"
#include "core/types.hh"
#include "sim/fault.hh"
#include "sim/queue.hh"

namespace tia {

/**
 * Flat word-addressable memory (addresses are word indices).
 *
 * Storage is chunked and allocated on first write: a fresh fabric pays
 * nothing for the address space it never touches, and reads of
 * untouched words return the architectural zero without backing store.
 * Sweeps construct thousands of fabrics whose workloads each use a
 * small footprint of a large memory; zero-filling it all up front
 * dominated fabric construction.
 */
class Memory
{
  public:
    explicit Memory(std::size_t words)
        : size_(words), chunks_((words + kChunkWords - 1) / kChunkWords)
    {
    }

    std::size_t size() const { return size_; }

    Word
    read(Word address) const
    {
        fatalIf(address >= size_, "memory read at ", address,
                " out of bounds (size ", size_, ")");
        const Word *chunk = chunks_[address / kChunkWords].get();
        return chunk != nullptr ? chunk[address % kChunkWords] : 0;
    }

    void
    write(Word address, Word value)
    {
        fatalIf(address >= size_, "memory write at ", address,
                " out of bounds (size ", size_, ")");
        auto &chunk = chunks_[address / kChunkWords];
        if (chunk == nullptr)
            chunk = std::make_unique<Word[]>(kChunkWords); // zero-filled
        chunk[address % kChunkWords] = value;
    }

    /** Full contents as a flat vector (tests / validation). */
    std::vector<Word>
    snapshot() const
    {
        std::vector<Word> words(size_, 0);
        for (std::size_t c = 0; c < chunks_.size(); ++c) {
            if (chunks_[c] == nullptr)
                continue;
            const std::size_t base = c * kChunkWords;
            const std::size_t count =
                std::min(kChunkWords, size_ - base);
            std::copy_n(chunks_[c].get(), count, words.begin() + base);
        }
        return words;
    }

  private:
    /** One page of words per chunk. */
    static constexpr std::size_t kChunkWords = 1024;

    std::size_t size_;
    std::vector<std::unique_ptr<Word[]>> chunks_;
};

/**
 * Read port: address channel in, data channel out, pipelined with a
 * fixed response latency. Accepts one new request per cycle.
 */
class MemoryReadPort
{
  public:
    /**
     * @param latency end-to-end load latency in cycles, from the
     *        address token leaving the PE to the data token being
     *        trigger-visible. Two cycles are consumed by the request
     *        and response channel hops, the rest by the array itself.
     */
    MemoryReadPort(Memory &memory, TaggedQueue &addresses,
                   TaggedQueue &responses, unsigned latency)
        : memory_(memory), addresses_(addresses), responses_(responses),
          latency_(latency >= 2 ? latency - 2 : 0)
    {
    }

    /** Install a fault injector; @p id names this read port. */
    void
    setFaultInjector(FaultInjector *injector, unsigned id)
    {
        faultInjector_ = injector;
        portId_ = id;
    }

    /**
     * Advance one cycle at time @p now: retire due responses (in
     * order, when the response channel has space) and accept at most
     * one new request.
     */
    void
    step(Cycle now)
    {
        // Deliver the oldest due response if the output has room
        // (snapshot view: space present at the start of the cycle).
        if (!inFlight_.empty() && inFlight_.front().ready <= now &&
            responses_.snapshotSize() < responses_.capacity() &&
            !responses_.faultStuckFull()) {
            responses_.push(inFlight_.front().token);
            inFlight_.pop_front();
        }
        // Accept one request per cycle (snapshot view of availability).
        if (addresses_.snapshotSize() > 0 &&
            !addresses_.faultStuckEmpty()) {
            Token request = addresses_.pop();
            Token response{memory_.read(request.data), request.tag};
            unsigned extra = 0;
            if (faultInjector_)
                extra = faultInjector_->extraReadLatency(portId_);
            inFlight_.push_back({now + latency_ + extra, response});
        }
    }

    /** Functional-mode service: satisfy one request immediately. */
    bool
    serviceOne()
    {
        if (addresses_.empty() || responses_.size() >= responses_.capacity())
            return false;
        Token request = addresses_.pop();
        responses_.pushImmediate({memory_.read(request.data), request.tag});
        return true;
    }

    /**
     * True if requests are still being processed or waiting to be
     * accepted (pending addresses will be consumed next cycle, so the
     * fabric is not quiescent yet).
     */
    bool busy() const { return !inFlight_.empty() || !addresses_.empty(); }

  private:
    struct Response
    {
        Cycle ready;
        Token token;
    };

    Memory &memory_;
    TaggedQueue &addresses_;
    TaggedQueue &responses_;
    unsigned latency_;
    std::deque<Response> inFlight_;
    FaultInjector *faultInjector_ = nullptr;
    unsigned portId_ = 0;
};

/**
 * Write port: consumes one (address, data) token pair per cycle when
 * both channels have tokens available.
 */
class MemoryWritePort
{
  public:
    MemoryWritePort(Memory &memory, TaggedQueue &addresses,
                    TaggedQueue &data)
        : memory_(memory), addresses_(addresses), data_(data)
    {
    }

    /** Advance one cycle (snapshot view of availability). */
    void
    step(Cycle)
    {
        if (addresses_.snapshotSize() > 0 && data_.snapshotSize() > 0 &&
            !addresses_.faultStuckEmpty() && !data_.faultStuckEmpty()) {
            Token address = addresses_.pop();
            Token value = data_.pop();
            memory_.write(address.data, value.data);
            ++writesPerformed_;
        }
    }

    /** Functional-mode service: perform one write immediately. */
    bool
    serviceOne()
    {
        if (addresses_.empty() || data_.empty())
            return false;
        Token address = addresses_.pop();
        Token value = data_.pop();
        memory_.write(address.data, value.data);
        ++writesPerformed_;
        return true;
    }

    std::uint64_t writesPerformed() const { return writesPerformed_; }

    /**
     * True while complete (address, data) pairs are waiting: the port
     * will retire one next cycle, so the fabric is still draining.
     */
    bool busy() const { return !addresses_.empty() && !data_.empty(); }

  private:
    Memory &memory_;
    TaggedQueue &addresses_;
    TaggedQueue &data_;
    std::uint64_t writesPerformed_ = 0;
};

} // namespace tia

#endif // TIA_SIM_MEMORY_HH
