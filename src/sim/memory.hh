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
 *
 * Besides step(), each port offers the replay-only operations the
 * fabric control memo runs for a recorded port cycle (a read port's
 * replayDeliver/replayAccept, a write port's replayStore): the same
 * moves over the channels' replay operations (sim/queue.hh), with the
 * address bounds checked beforehand (addressInBounds). Each port counts
 * its moves (a read port's deliveries and accepts, a write port's
 * stores), which is how the memo reads what a recorded cycle did.
 */

#ifndef TIA_SIM_MEMORY_HH
#define TIA_SIM_MEMORY_HH

#include <algorithm>
#include <cstddef>
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
 * A full cold tia-sweep builds 217 fabrics (320 cells minus 103
 * derived, per its --metrics "matrix" block), each of whose workloads
 * uses a small footprint of a 64 Ki-word memory; zero-filling it all up
 * front dominated fabric construction.
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
 * fixed response latency. Accepts one new request per cycle while
 * fewer than maxInFlight() are outstanding, as a BRAM port pipelines a
 * bounded number of reads; past that, requests wait in the address
 * channel and push back on the requester.
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
          latency_(latency >= 2 ? latency - 2 : 0), held_(maxInFlight())
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
     * Requests the port holds at most: one per cycle of the array's
     * latency, plus the two the channel hops add. At the default
     * 4-cycle latency that is 4, enough to stream one load per cycle.
     */
    std::size_t maxInFlight() const { return latency_ + 2; }

    /** Requests accepted whose responses are not yet delivered. */
    std::size_t inFlight() const { return count_; }

    /** Responses ever delivered. */
    std::uint64_t delivered() const { return delivered_; }

    /** Requests ever accepted. */
    std::uint64_t accepted() const { return accepted_; }

    /** Cycles from @p now until held request @p i is due (0 once due). */
    Cycle
    heldWait(std::size_t i, Cycle now) const
    {
        const Cycle ready = held(i).ready;
        return ready > now ? ready - now : 0;
    }

    /** The tag held request @p i will answer with. */
    Tag heldTag(std::size_t i) const { return held(i).token.tag; }

    /**
     * Advance one cycle at time @p now: retire due responses (in
     * order, when the response channel has space) and accept at most
     * one new request, while fewer than maxInFlight() are held.
     */
    void
    step(Cycle now)
    {
        // Deliver the oldest due response if the output has room
        // (snapshot view: space present at the start of the cycle).
        if (count_ != 0 && held(0).ready <= now &&
            responses_.snapshotSize() < responses_.capacity() &&
            !responses_.faultStuckFull()) {
            responses_.push(held(0).token);
            release();
        }
        // Accept one request per cycle (snapshot view of availability).
        if (addresses_.snapshotSize() > 0 && count_ < maxInFlight() &&
            !addresses_.faultStuckEmpty()) {
            Token request = addresses_.pop();
            Token response{memory_.read(request.data), request.tag};
            unsigned extra = 0;
            if (faultInjector_)
                extra = faultInjector_->extraReadLatency(portId_);
            hold({now + latency_ + extra, response});
        }
    }

    /** The address at the head of the address channel is in bounds. */
    bool
    addressInBounds() const
    {
        return addresses_.peek()->data < memory_.size();
    }

    /**
     * Replay-only: deliver the oldest held response, which is due and
     * has room in the response channel.
     */
    void
    replayDeliver()
    {
        responses_.replayPush(held(0).token);
        release();
    }

    /**
     * Replay-only: accept the head address (addressInBounds() holds) at
     * time @p now, with room for it.
     */
    void
    replayAccept(Cycle now)
    {
        const Token request = addresses_.replayPop();
        hold({now + latency_, {memory_.read(request.data), request.tag}});
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
     * True while the port can move by itself: a held request can still
     * be delivered (the response channel has room), or a waiting
     * address can still be accepted. A port holding requests behind a
     * full response channel waits on that channel's consumer
     * (blockedOnResponses), so the fabric can go quiescent around it.
     */
    bool
    busy() const
    {
        return (count_ != 0 && !responsesFull()) ||
               (!addresses_.empty() && count_ < maxInFlight());
    }

    /** Holds requests that a full response channel keeps back. */
    bool blockedOnResponses() const
    {
        return count_ != 0 && responsesFull();
    }

  private:
    bool
    responsesFull() const
    {
        return responses_.size() >= responses_.capacity();
    }

    struct Response
    {
        Cycle ready;
        Token token;
    };

    /** Held request @p i, oldest first. */
    const Response &
    held(std::size_t i) const
    {
        const std::size_t slot = first_ + i;
        return held_[slot < held_.size() ? slot : slot - held_.size()];
    }

    /**
     * Hold one more request, counted accepted (fewer than
     * maxInFlight() are held).
     */
    void
    hold(const Response &response)
    {
        const std::size_t slot = first_ + count_;
        held_[slot < held_.size() ? slot : slot - held_.size()] = response;
        ++count_;
        ++accepted_;
    }

    /** Drop the oldest held request, counted delivered. */
    void
    release()
    {
        first_ = first_ + 1 < held_.size() ? first_ + 1 : 0;
        --count_;
        ++delivered_;
    }

    Memory &memory_;
    TaggedQueue &addresses_;
    TaggedQueue &responses_;
    unsigned latency_;
    /** Held requests: a ring of maxInFlight() entries from first_. */
    std::vector<Response> held_;
    std::size_t first_ = 0;
    std::size_t count_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t accepted_ = 0;
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

    /** The address at the head of the address channel is in bounds. */
    bool
    addressInBounds() const
    {
        return addresses_.peek()->data < memory_.size();
    }

    /**
     * Replay-only: store the head (address, data) pair
     * (addressInBounds() holds).
     */
    void
    replayStore()
    {
        const Token address = addresses_.replayPop();
        const Token value = data_.replayPop();
        memory_.write(address.data, value.data);
        ++writesPerformed_;
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
