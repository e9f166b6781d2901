/**
 * @file
 * Memory and read/write port tests: bounds checking, end-to-end load
 * latency, request pipelining, tag echo, response backpressure, and
 * write pairing.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/memory.hh"

namespace tia {
namespace {

TEST(Memory, ReadWriteAndBounds)
{
    Memory memory(16);
    memory.write(3, 99);
    EXPECT_EQ(memory.read(3), 99u);
    EXPECT_EQ(memory.read(0), 0u);
    EXPECT_ANY_THROW(memory.read(16));
    EXPECT_ANY_THROW(memory.write(16, 1));
}

/** Drive a read port cycle by cycle from raw queues. */
struct ReadHarness
{
    Memory memory{64};
    TaggedQueue addresses{4};
    TaggedQueue responses{4};
    MemoryReadPort port{memory, addresses, responses, 4};
    Cycle now = 0;

    void
    cycle()
    {
        port.step(now);
        addresses.commit();
        responses.commit();
        ++now;
    }
};

TEST(MemoryPort, EndToEndLoadLatencyIsFourCycles)
{
    // Paper Section 3: on-chip memory load latency of four cycles.
    // Our contract: address token leaves the producer at cycle t
    // (committed at end of t); the response is trigger-visible at
    // t + 4.
    ReadHarness h;
    h.memory.write(7, 1234);

    // Cycle t = 0: producer pushes the address (commits at end).
    h.addresses.push({7, 0});
    h.port.step(h.now);
    h.addresses.commit();
    h.responses.commit();
    ++h.now;

    Cycle visible_at = 0;
    for (Cycle t = 1; t < 12 && visible_at == 0; ++t) {
        h.cycle();
        if (!h.responses.empty())
            visible_at = h.now; // start of the cycle it can trigger
    }
    EXPECT_EQ(visible_at, 4u);
    EXPECT_EQ(h.responses.pop().data, 1234u);
}

TEST(MemoryPort, EchoesRequestTag)
{
    ReadHarness h;
    h.memory.write(1, 11);
    h.memory.write(2, 22);
    h.addresses.pushImmediate({1, 2});
    h.addresses.pushImmediate({2, 1});
    for (int i = 0; i < 12; ++i)
        h.cycle();
    ASSERT_EQ(h.responses.size(), 2u);
    EXPECT_EQ(h.port.accepted(), 2u);
    EXPECT_EQ(h.port.delivered(), 2u);
    EXPECT_EQ(h.responses.pop(), (Token{11, 2}));
    EXPECT_EQ(h.responses.pop(), (Token{22, 1}));
}

TEST(MemoryPort, PipelinesOneRequestPerCycle)
{
    // Four back-to-back requests complete in latency + 3 extra
    // cycles, not 4x latency.
    ReadHarness h;
    for (Word a = 0; a < 4; ++a) {
        h.memory.write(a, a + 100);
        h.addresses.pushImmediate({a, 0});
    }
    unsigned cycles_until_all = 0;
    while (h.responses.size() < 4 && cycles_until_all < 20) {
        // Drain nothing; capacity 4 holds all responses.
        h.cycle();
        ++cycles_until_all;
    }
    EXPECT_LE(cycles_until_all, 8u);
    for (Word a = 0; a < 4; ++a)
        EXPECT_EQ(h.responses.pop().data, a + 100);
}

TEST(MemoryPort, RespectsResponseBackpressure)
{
    // A full response queue must stall deliveries, not drop them.
    Memory memory(16);
    TaggedQueue addresses(8);
    TaggedQueue responses(1); // tiny
    MemoryReadPort port(memory, addresses, responses, 4);
    memory.write(0, 7);
    memory.write(1, 8);
    addresses.pushImmediate({0, 0});
    addresses.pushImmediate({1, 0});
    Cycle now = 0;
    auto cycle = [&] {
        port.step(now++);
        addresses.commit();
        responses.commit();
    };
    for (int i = 0; i < 10; ++i)
        cycle();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses.pop().data, 7u);
    for (int i = 0; i < 10; ++i)
        cycle();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses.pop().data, 8u);
    EXPECT_FALSE(port.busy());
}

TEST(MemoryPort, HoldsAtMostLatencyPlusTwoRequests)
{
    // Nobody drains the one-entry response channel: the port delivers
    // one response, then holds latency - 2 + 2 = 4 requests and leaves
    // the rest waiting in the address channel, backing up the
    // requester instead of buffering every address it is sent.
    Memory memory(64);
    TaggedQueue addresses(16);
    TaggedQueue responses(1);
    MemoryReadPort port(memory, addresses, responses, 4);
    ASSERT_EQ(port.maxInFlight(), 4u);
    for (Word a = 0; a < 12; ++a)
        addresses.pushImmediate({a, 0});
    std::size_t peak = 0;
    for (Cycle now = 0; now < 40; ++now) {
        port.step(now);
        addresses.commit();
        responses.commit();
        peak = std::max(peak, port.inFlight());
    }
    EXPECT_EQ(peak, 4u);
    EXPECT_EQ(port.inFlight(), 4u);
    EXPECT_EQ(responses.size(), 1u);
    EXPECT_EQ(addresses.size(), 12u - 1u - 4u);
    // Stuck behind the full response channel, the port cannot move by
    // itself: it is not busy, and it names what it waits on.
    EXPECT_FALSE(port.busy());
    EXPECT_TRUE(port.blockedOnResponses());

    // Draining one response frees one slot a cycle later.
    EXPECT_EQ(responses.pop().data, 0u);
    EXPECT_TRUE(port.busy());
}

TEST(MemoryPort, WritePortPairsAddressAndData)
{
    Memory memory(16);
    TaggedQueue addresses(4);
    TaggedQueue data(4);
    MemoryWritePort port(memory, addresses, data);
    Cycle now = 0;
    auto cycle = [&] {
        port.step(now++);
        addresses.commit();
        data.commit();
    };

    // Address arrives first; nothing happens until data shows up.
    addresses.pushImmediate({5, 0});
    cycle();
    EXPECT_EQ(port.writesPerformed(), 0u);
    data.pushImmediate({77, 0});
    cycle();
    EXPECT_EQ(port.writesPerformed(), 1u);
    EXPECT_EQ(memory.read(5), 77u);

    // One pair per cycle, in order.
    addresses.pushImmediate({6, 0});
    addresses.pushImmediate({7, 0});
    data.pushImmediate({1, 0});
    data.pushImmediate({2, 0});
    cycle();
    EXPECT_EQ(port.writesPerformed(), 2u);
    cycle();
    EXPECT_EQ(port.writesPerformed(), 3u);
    EXPECT_EQ(memory.read(6), 1u);
    EXPECT_EQ(memory.read(7), 2u);
}

TEST(MemoryPort, FunctionalServiceIsImmediate)
{
    Memory memory(16);
    TaggedQueue addresses(4);
    TaggedQueue responses(4);
    MemoryReadPort port(memory, addresses, responses, 4);
    memory.write(9, 900);
    addresses.pushImmediate({9, 3});
    EXPECT_TRUE(port.serviceOne());
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses.pop(), (Token{900, 3}));
    EXPECT_FALSE(port.serviceOne()); // nothing left
}

} // namespace
} // namespace tia
