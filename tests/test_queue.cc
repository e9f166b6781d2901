/**
 * @file
 * TaggedQueue unit tests: FIFO order, deep peek, capacity enforcement,
 * and the cycle-start occupancy / deferred-push discipline the
 * cycle-accurate fabric relies on, with commit() ending a cycle.
 */

#include <gtest/gtest.h>

#include "sim/fault.hh"
#include "sim/queue.hh"

namespace tia {
namespace {

TEST(Queue, FifoOrderAndTags)
{
    TaggedQueue q(4);
    q.pushImmediate({10, 0});
    q.pushImmediate({20, 1});
    q.pushImmediate({30, 2});
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.pop(), (Token{10, 0}));
    EXPECT_EQ(q.pop(), (Token{20, 1}));
    EXPECT_EQ(q.pop(), (Token{30, 2}));
    EXPECT_TRUE(q.empty());
}

TEST(Queue, PeekHeadAndNeck)
{
    // Section 5.3: effective queue status must expose "the head and
    // neck" for tag checks past in-flight dequeues.
    TaggedQueue q(4);
    q.pushImmediate({1, 3});
    q.pushImmediate({2, 1});
    ASSERT_NE(q.peek(0), nullptr);
    EXPECT_EQ(q.peek(0)->tag, 3u);
    ASSERT_NE(q.peek(1), nullptr);
    EXPECT_EQ(q.peek(1)->tag, 1u);
    EXPECT_EQ(q.peek(2), nullptr);
}

TEST(Queue, DeferredPushesBecomeVisibleAtCommit)
{
    TaggedQueue q(4);
    q.push({42, 0});
    EXPECT_EQ(q.size(), 0u); // not yet visible
    EXPECT_EQ(q.pendingPushes(), 1u);
    q.commit();
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.pendingPushes(), 0u);
    EXPECT_EQ(q.peek(0)->data, 42u);
}

TEST(Queue, SnapshotFreezesOccupancyAtCycleStart)
{
    TaggedQueue q(4);
    q.pushImmediate({1, 0});
    q.pushImmediate({2, 0});
    EXPECT_EQ(q.snapshotSize(), 2u);
    q.pop();
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.snapshotSize(), 2u); // unchanged mid-cycle
    q.push({3, 0});
    EXPECT_EQ(q.snapshotSize(), 2u);
    q.commit();
    EXPECT_EQ(q.snapshotSize(), 2u); // 1 left + 1 committed
}

TEST(Queue, PopsThisCycleResetAtCommit)
{
    TaggedQueue q(4);
    q.pushImmediate({1, 0});
    q.pushImmediate({2, 0});
    EXPECT_EQ(q.popsThisCycle(), 0u);
    q.pop();
    EXPECT_EQ(q.popsThisCycle(), 1u);
    q.pop();
    EXPECT_EQ(q.popsThisCycle(), 2u);
    q.commit();
    EXPECT_EQ(q.popsThisCycle(), 0u);
}

TEST(Queue, SnapshotIsCommittedPlusPopsThroughACycle)
{
    // Every push is delivered twice, capacity permitting: duplicates
    // wait in the deferred window like the pushes they copy.
    FaultInjector injector(FaultPlan::parse("seed=7;dup:ch0@p1"));
    TaggedQueue q(6);
    q.setFaultInjector(&injector, 0);
    auto holds = [&] {
        EXPECT_EQ(q.snapshotSize(), q.size() + q.popsThisCycle());
    };
    q.push({1, 0});
    holds();
    EXPECT_EQ(q.pendingPushes(), 2u);
    EXPECT_EQ(q.snapshotSize(), 0u);
    q.commit();
    holds();
    EXPECT_EQ(q.snapshotSize(), 2u);
    q.pop();
    holds();
    q.push({2, 0});
    holds();
    q.pop();
    holds();
    EXPECT_EQ(q.snapshotSize(), 2u); // the cycle-start occupancy
    EXPECT_EQ(q.pendingPushes(), 2u);
    q.commit();
    holds();
    EXPECT_EQ(q.popsThisCycle(), 0u);
    EXPECT_EQ(q.snapshotSize(), 2u); // 0 left + 2 committed
    EXPECT_EQ(injector.stats().totalFired(), 2u);
}

TEST(Queue, CapacityIncludesPendingPushes)
{
    TaggedQueue q(2);
    q.push({1, 0});
    q.push({2, 0});
    // A third push would exceed capacity even though nothing is
    // committed yet: the hazard checks upstream must prevent this.
    EXPECT_ANY_THROW(q.push({3, 0}));
    q.commit();
    EXPECT_ANY_THROW(q.pushImmediate({4, 0}));
}

TEST(Queue, PopFromEmptyPanics)
{
    TaggedQueue q(2);
    EXPECT_ANY_THROW(q.pop());
}

TEST(Queue, ZeroCapacityRejected)
{
    EXPECT_ANY_THROW(TaggedQueue(0));
}

TEST(Queue, RingWraparoundKeepsFifoOrder)
{
    // Odd capacity so the ring indices exercise the non-power-of-two
    // wrap path; enough rounds that head_ laps the buffer repeatedly.
    TaggedQueue q(3);
    Word next_in = 0;
    Word next_out = 0;
    q.pushImmediate({next_in++, 0});
    q.pushImmediate({next_in++, 0});
    for (int round = 0; round < 50; ++round) {
        EXPECT_EQ(q.pop().data, next_out++);
        q.push({next_in++, static_cast<Tag>(next_in % 4)});
        ASSERT_NE(q.peek(0), nullptr);
        EXPECT_EQ(q.peek(0)->data, next_out);
        q.commit();
        EXPECT_EQ(q.size(), 2u);
    }
    EXPECT_EQ(q.pop().data, next_out++);
    EXPECT_EQ(q.pop().data, next_out);
    EXPECT_TRUE(q.empty());
}

TEST(Queue, TotalsCountLifetimeTraffic)
{
    // The event log's progress count is the lifetime push + pop total;
    // its dirty list holds the channel once, whatever the traffic.
    TaggedQueue q(2);
    QueueEventLog log(4);
    q.setEventLog(&log, 3);
    for (int round = 0; round < 5; ++round) {
        q.push({static_cast<Word>(round), 0});
        q.commit();
        q.pop();
    }
    EXPECT_EQ(log.progressEvents(), 10u);
    ASSERT_EQ(log.dirtyChannels().size(), 1u);
    EXPECT_EQ(log.dirtyChannels().front(), 3u);
}

} // namespace
} // namespace tia
