/**
 * @file
 * RTL-fidelity contract tests for the pipelined PE: exact timing of
 * predicate visibility, head-and-neck tag peeking, single-cycle +P
 * no-ops, enqueue capacity guarantees, and drain behavior.
 */

#include <gtest/gtest.h>

#include "core/assembler.hh"
#include "sim/fabric_config.hh"
#include "uarch/cycle_fabric.hh"

namespace tia {
namespace {

FabricConfig
loneConfig()
{
    FabricBuilder builder(ArchParams{}, 1);
    return builder.build();
}

TEST(PipelineFidelity, PredicateWriteInvisibleToSameCycleTrigger)
{
    // On TD|X the eq issues+decodes at cycle t and writes back at the
    // end of t+1. The trigger resolution *during* t+1 must still see
    // the bit as pending (a one-cycle predicate hazard); the dependent
    // instruction issues at t+2.
    const Program program = assemble(
        "when %p == XXXX0X00: eq %p2, %r1, %r1; set %p = ZZZZZZ01;\n"
        "when %p == XXXXX101: add %r0, %r0, #1; set %p = ZZZZ1Z00;\n"
        "when %p == XXXX1XXX: halt;\n");
    CycleFabric fabric(loneConfig(), program,
                       {PipelineShape{false, true, false}, false, false});
    ASSERT_EQ(fabric.run({1'000}), RunStatus::Halted);
    const PerfCounters &c = fabric.pe(0).counters();
    // Exactly one predicate-hazard cycle for the depth-2 window.
    EXPECT_EQ(c.predicateHazard, 1u);
    // t0 issue eq, t1 hazard, t2 issue add, t3 issue halt, t4 halt
    // retires: 5 cycles.
    EXPECT_EQ(c.cycles, 5u);
}

TEST(PipelineFidelity, SingleCyclePredictionIsInert)
{
    // TDX has no speculation window: +P must not predict at all.
    const Program program = assemble(
        "when %p == XXXXXX00: eq %p2, %r1, %r1; set %p = ZZZZZZ01;\n"
        "when %p == XXXXX101: halt;\n");
    CycleFabric fabric(loneConfig(), program,
                       {PipelineShape{false, false, false}, true, true});
    ASSERT_EQ(fabric.run({1'000}), RunStatus::Halted);
    EXPECT_EQ(fabric.pe(0).counters().predictions, 0u);
    EXPECT_EQ(fabric.pe(0).counters().quashed, 0u);
    EXPECT_EQ(fabric.pe(0).counters().cycles, 2u); // CPI exactly 1
}

TEST(PipelineFidelity, HeadAndNeckTagPeek)
{
    // Section 5.3: with T|D split and +Q, the scheduler must check the
    // tag at depth = in-flight dequeues. The consumer alternates
    // instructions by tag; tokens alternate tags. With +Q the
    // sequence proceeds back-to-back because the *neck* is visible.
    const Program program = assemble(
        ".pe 0\n"
        "when %p == XXXXXX00: mov %o0.0, #10; set %p = ZZZZZZ01;\n"
        "when %p == XXXXXX01: mov %o0.1, #11; set %p = ZZZZZZ10;\n"
        "when %p == XXXXXX10: mov %o0.0, #12; set %p = ZZZZZZ11;\n"
        "when %p == XXXXXX11: halt;\n"
        ".pe 1\n"
        "when %p == XXXXXX00 with %i0.0: add %r0, %r0, %i0; deq %i0; "
        "set %p = ZZZZZZ01;\n"
        "when %p == XXXXXX01 with %i0.1: add %r1, %r1, %i0; deq %i0; "
        "set %p = ZZZZZZ10;\n"
        "when %p == XXXXXX10 with %i0.0: add %r0, %r0, %i0; deq %i0; "
        "set %p = ZZZZZZ11;\n"
        "when %p == XXXXXX11: halt;\n");
    FabricBuilder builder(ArchParams{}, 2);
    builder.connect(0, 0, 1, 0);

    auto consumer_counters = [&](bool q) {
        CycleFabric fabric(builder.build(), program,
                           {PipelineShape{true, false, false}, false, q});
        EXPECT_EQ(fabric.run({10'000}), RunStatus::Halted);
        EXPECT_EQ(fabric.pe(1).regs()[0], 22u);
        EXPECT_EQ(fabric.pe(1).regs()[1], 11u);
        return fabric.pe(1).counters();
    };
    const PerfCounters base = consumer_counters(false);
    const PerfCounters with_q = consumer_counters(true);
    // Both are architecturally correct, but +Q consumes tokens
    // back-to-back while the conservative design inserts a no-trigger
    // bubble after each dequeue.
    EXPECT_LT(with_q.cycles, base.cycles);
    EXPECT_GT(base.noTrigger, with_q.noTrigger);
}

TEST(PipelineFidelity, EffectiveStatusNeverOverflowsQueues)
{
    // A producer enqueueing on every instruction under +Q must respect
    // in-flight enqueue accounting even with a slow consumer; any
    // overflow would panic inside TaggedQueue.
    const Program program = assemble(
        ".pe 0\n"
        "when %p == XXXXXXXX: mov %o0.0, #1;\n"
        ".pe 1\n"
        "when %p == XXXXX000 with %i0.0: add %r0, %r0, %i0; deq %i0; "
        "set %p = ZZZZZ001;\n"
        "when %p == XXXXX001: nop; set %p = ZZZZZ010;\n"
        "when %p == XXXXX010: nop; set %p = ZZZZZ011;\n"
        "when %p == XXXXX011: nop; set %p = ZZZZZ000;\n");
    FabricBuilder builder(ArchParams{}, 2);
    builder.connect(0, 0, 1, 0);
    for (const auto &shape : allShapes()) {
        CycleFabric fabric(builder.build(), program, {shape, true, true});
        ASSERT_NO_THROW({
            for (int i = 0; i < 3000; ++i)
                fabric.step();
        }) << shape.name();
        // Consumer takes 4 cycles per token: producer throughput must
        // settle at exactly one token per 4 cycles.
        EXPECT_NEAR(static_cast<double>(
                        fabric.pe(0).counters().retired),
                    3000.0 / 4.0, 8.0)
            << shape.name();
    }
}

TEST(PipelineFidelity, DrainCyclesAreCountedAfterHaltIssue)
{
    const Program program = assemble("when %p == XXXXXXXX: halt;\n");
    for (const auto &shape : allShapes()) {
        CycleFabric fabric(loneConfig(), program,
                           {shape, false, false});
        ASSERT_EQ(fabric.run({100}), RunStatus::Halted) << shape.name();
        const PerfCounters &c = fabric.pe(0).counters();
        EXPECT_EQ(c.retired, 1u);
        EXPECT_EQ(c.cycles, shape.depth()) << shape.name();
        EXPECT_EQ(c.noTrigger, shape.depth() - 1) << shape.name();
    }
}

TEST(PipelineFidelity, InFlightTracksPipelineOccupancy)
{
    const Program program = assemble(
        "when %p == XXXXXXX0: add %r0, %r1, #1; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: add %r2, %r3, #1; set %p = ZZZZZZZ0;\n");
    CycleFabric fabric(loneConfig(), program,
                       {PipelineShape{true, true, true}, false, false});
    EXPECT_EQ(fabric.pe(0).inFlight(), 0u);
    fabric.step();
    EXPECT_EQ(fabric.pe(0).inFlight(), 1u);
    fabric.step();
    EXPECT_EQ(fabric.pe(0).inFlight(), 2u);
    fabric.step();
    EXPECT_EQ(fabric.pe(0).inFlight(), 3u);
    // Steady state: one issue and one retirement per step leaves
    // depth-1 instructions resident between steps.
    fabric.step();
    EXPECT_EQ(fabric.pe(0).inFlight(), 3u);
    fabric.step();
    EXPECT_EQ(fabric.pe(0).inFlight(), 3u);
    EXPECT_TRUE(fabric.pe(0).busy());
}

TEST(PipelineFidelity, DequeueCountersMatchTraffic)
{
    const Program program = assemble(
        ".pe 0\n"
        "when %p == XXXXXX00: mov %o0.0, #5; set %p = ZZZZZZ01;\n"
        "when %p == XXXXXX01: mov %o0.0, #6; set %p = ZZZZZZ10;\n"
        "when %p == XXXXXX10: halt;\n"
        ".pe 1\n"
        "when %p == XXXXXXX0 with %i0.0: add %r0, %r0, %i0; deq %i0;\n");
    FabricBuilder builder(ArchParams{}, 2);
    builder.connect(0, 0, 1, 0);
    CycleFabric fabric(builder.build(), program,
                       {PipelineShape{true, false, false}, false, true});
    for (int i = 0; i < 200; ++i)
        fabric.step();
    EXPECT_EQ(fabric.pe(0).counters().enqueues, 2u);
    EXPECT_EQ(fabric.pe(1).counters().dequeues, 2u);
    EXPECT_EQ(fabric.pe(1).regs()[0], 11u);
}

} // namespace
} // namespace tia
