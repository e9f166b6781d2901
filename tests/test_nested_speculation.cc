/**
 * @file
 * Tests for the +N nested-speculation extension (paper Section 6:
 * "Our initial exploration suggests that it would not be terribly
 * expensive to support nested speculation, and we would like to
 * examine the effect of this addition on decreasing the number of
 * forbidden instructions in deep pipelines").
 */

#include <gtest/gtest.h>

#include "core/assembler.hh"
#include "uarch/cycle_fabric.hh"
#include "workloads/runner.hh"

namespace tia {
namespace {

const PipelineShape kDeep{true, true, true}; // T|D|X1|X2

FabricConfig
loneConfig()
{
    FabricBuilder builder(ArchParams{}, 1);
    return builder.build();
}

// Back-to-back predicate writers: i0 writes p1, i1 consumes p1 and
// writes p2, i2 consumes p2 — without nesting, i1 is forbidden until
// i0 resolves every iteration.
const char *kChainedPredLoop =
    "when %p == XX00XXXX: eq %p1, %r2, %r2; set %p = ZZ01ZZZZ;\n"
    "when %p == XX01XX1X: ne %p3, %r3, #5; set %p = ZZ10ZZZZ;\n"
    "when %p == XX101XXX: add %r0, %r0, #1; set %p = ZZ00ZZZZ;\n";
// (p1 is always 1 and p3 always 1: both predictions converge; the
// point is the *structural* nesting of two in-flight predictions.)

TEST(NestedSpeculation, RequiresPrediction)
{
    EXPECT_ANY_THROW(PipelinedPe(ArchParams{},
                                 {kDeep, false, false, true}, {}));
}

TEST(NestedSpeculation, NameCarriesSuffix)
{
    EXPECT_EQ((PeConfig{kDeep, true, true, true}).name(),
              "T|D|X1|X2 +P+N+Q");
    EXPECT_EQ((PeConfig{kDeep, true, false, true}).name(),
              "T|D|X1|X2 +P+N");
}

TEST(NestedSpeculation, ReducesForbiddenCycles)
{
    const Program program = assemble(kChainedPredLoop);
    auto run = [&](bool nested) {
        CycleFabric fabric(loneConfig(), program,
                           {kDeep, true, false, nested});
        for (int i = 0; i < 3000; ++i)
            fabric.step();
        return fabric.pe(0).counters();
    };
    const PerfCounters base = run(false);
    const PerfCounters nested = run(true);
    EXPECT_GT(base.forbidden, 0u);
    EXPECT_LT(nested.forbidden, base.forbidden / 2);
    EXPECT_GT(nested.retired, base.retired);
    // Same forward progress semantics.
    EXPECT_EQ(base.predicateHazard, 0u);
    EXPECT_EQ(nested.predicateHazard, 0u);
}

TEST(NestedSpeculation, NestedMispredictionRecovers)
{
    // Two back-to-back data-dependent predicate writes (p2 and p3
    // alternate every iteration, so the two-bit counters mispredict
    // constantly) feeding two branch pairs. Nested wrong-path work
    // must roll back to exactly the functional result.
    const Program program = assemble(
        "when %p == 1000XXXX: halt;\n"
        "when %p == X000XXXX: add %r0, %r0, #1; set %p = Z001ZZZZ;\n"
        "when %p == X001XXXX: and %r1, %r0, #1; set %p = Z010ZZZZ;\n"
        "when %p == X010XXXX: eq %p2, %r1, #0; set %p = Z011ZZZZ;\n"
        "when %p == X011XXXX: ne %p3, %r1, #0; set %p = Z100ZZZZ;\n"
        "when %p == X100X1XX: add %r4, %r4, #1; set %p = Z101ZZZZ;\n"
        "when %p == X100X0XX: add %r5, %r5, #1; set %p = Z101ZZZZ;\n"
        "when %p == X1011XXX: add %r6, %r6, #3; set %p = Z110ZZZZ;\n"
        "when %p == X1010XXX: xor %r6, %r6, #7; set %p = Z110ZZZZ;\n"
        "when %p == X110XXXX: uge %p7, %r0, #60; set %p = Z000ZZZZ;\n");

    FabricBuilder builder(program.params, 1);
    const FabricConfig config = builder.build();
    FunctionalFabric golden(config, program);
    ASSERT_EQ(golden.run(), RunStatus::Halted);

    for (bool nested : {false, true}) {
        CycleFabric fabric(config, program,
                           {kDeep, true, false, nested});
        ASSERT_EQ(fabric.run({100'000}), RunStatus::Halted)
            << (nested ? "+N" : "base");
        EXPECT_EQ(fabric.pe(0).regs(), golden.pe(0).regs())
            << (nested ? "+N" : "base");
        if (nested) {
            EXPECT_GT(fabric.pe(0).counters().mispredictions, 20u);
        }
    }
}

TEST(NestedSpeculation, WorkloadsValidateUnderNesting)
{
    const WorkloadSizes sizes = WorkloadSizes::small();
    for (const Workload &w : allWorkloads(sizes)) {
        const WorkloadRun run =
            runCycle(w, {kDeep, true, true, true});
        EXPECT_TRUE(run.ok()) << w.name << ": " << run.checkError;
    }
}

TEST(NestedSpeculation, MatchesFunctionalResultsOnWorkloads)
{
    const WorkloadSizes sizes = WorkloadSizes::small();
    for (const Workload &w : allWorkloads(sizes)) {
        const WorkloadRun golden = runFunctional(w);
        for (const auto &shape : allShapes()) {
            if (shape.depth() < 3)
                continue;
            const WorkloadRun run =
                runCycle(w, {shape, true, true, true});
            ASSERT_TRUE(run.ok()) << w.name;
            EXPECT_EQ(run.dynamicInstructions,
                      golden.dynamicInstructions)
                << w.name << " on " << shape.name() << " +P+N+Q";
        }
    }
}

} // namespace
} // namespace tia
