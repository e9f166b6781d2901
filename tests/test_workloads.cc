/**
 * @file
 * End-to-end tests for the Table 3 benchmark suite: every workload
 * validates against its golden model on the functional simulator and
 * on representative cycle-accurate microarchitectures, and the
 * functional and cycle-accurate runs agree architecturally.
 */

#include <gtest/gtest.h>

#include "workloads/runner.hh"

namespace tia {
namespace {

const WorkloadSizes kSizes = WorkloadSizes::small();

class AllWorkloads : public ::testing::TestWithParam<unsigned>
{
  protected:
    Workload workload() const { return allWorkloads(kSizes)[GetParam()]; }
};

TEST_P(AllWorkloads, FunctionalValidates)
{
    const Workload w = workload();
    const WorkloadRun run = runFunctional(w);
    EXPECT_EQ(run.status, RunStatus::Halted) << w.name;
    EXPECT_EQ(run.checkError, "") << w.name;
}

TEST_P(AllWorkloads, SingleCycleValidates)
{
    const Workload w = workload();
    const WorkloadRun run =
        runCycle(w, {PipelineShape{false, false, false}, false, false});
    EXPECT_EQ(run.status, RunStatus::Halted) << w.name;
    EXPECT_EQ(run.checkError, "") << w.name;
}

TEST_P(AllWorkloads, DeepestPipelineWithBothOptimizationsValidates)
{
    const Workload w = workload();
    const WorkloadRun run =
        runCycle(w, {PipelineShape{true, true, true}, true, true});
    EXPECT_EQ(run.status, RunStatus::Halted) << w.name;
    EXPECT_EQ(run.checkError, "") << w.name;
}

TEST_P(AllWorkloads, AllThirtyTwoMicroarchitecturesAgreeWithFunctional)
{
    const Workload w = workload();
    const WorkloadRun golden = runFunctional(w);
    ASSERT_TRUE(golden.ok()) << w.name << ": " << golden.checkError;

    for (const PeConfig &config : allConfigs()) {
        const WorkloadRun run = runCycle(w, config);
        EXPECT_EQ(run.status, RunStatus::Halted)
            << w.name << " on " << config.name();
        EXPECT_EQ(run.checkError, "")
            << w.name << " on " << config.name();
        // Architectural equivalence: identical dynamic instruction
        // counts per PE (quashed instructions do not retire).
        EXPECT_EQ(run.dynamicInstructions, golden.dynamicInstructions)
            << w.name << " on " << config.name();
    }
}

TEST_P(AllWorkloads, CycleCountersAreConsistent)
{
    const Workload w = workload();
    for (const PeConfig &config : figure5Configs()) {
        const WorkloadRun run = runCycle(w, config);
        ASSERT_TRUE(run.ok()) << w.name << " on " << config.name();
        const PerfCounters &c = run.worker;
        // Worker halted => its pipe drained: buckets account for every
        // cycle.
        EXPECT_EQ(c.cycles, c.retired + c.quashed + c.predicateHazard +
                                c.dataHazard + c.forbidden + c.noTrigger)
            << w.name << " on " << config.name();
        EXPECT_GE(c.cpi(), 1.0) << w.name << " on " << config.name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, AllWorkloads, ::testing::Range(0u, 10u),
    [](const auto &info) {
        return allWorkloads(WorkloadSizes::small())[info.param].name;
    });

TEST(Workloads, SuiteHasTenBenchmarksInTableOrder)
{
    const auto suite = allWorkloads(kSizes);
    ASSERT_EQ(suite.size(), 10u);
    const char *expected[] = {"bst",    "gcd",   "mean",   "arg_max",
                              "dot_product", "filter", "merge", "stream",
                              "string_search", "udiv"};
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(suite[i].name, expected[i]);
}

TEST(Workloads, DotProductWorkerUsesNoPredicateControlFlow)
{
    // Figure 4 note: "the worker PE in dot product does not rely on
    // predicates for control flow, just the semantic information
    // encoded in operand tags."
    const Workload w = makeDotProduct(kSizes);
    const WorkloadRun run = runFunctional(w);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.worker.predicateWrites, 0u);
}

TEST(Workloads, DotProductWorkerDynamicCountMatchesPaperFormula)
{
    // The paper reports 20,003 dynamic instructions for dot product;
    // our worker retires 2N + 3 instructions, which reproduces that
    // exactly at the paper's N = 10,000.
    const Workload w = makeDotProduct(kSizes);
    const WorkloadRun run = runFunctional(w);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.worker.retired,
              2ull * kSizes.dotCount + 3);
}

TEST(Workloads, PreloadWritesExactlyTheInputs)
{
    // At both sizes: preload leaves every input word at its address and
    // every other word zero, and no two segments share a word (so the
    // segment order cannot matter).
    for (const WorkloadSizes &sizes :
         {WorkloadSizes::small(), WorkloadSizes::full()}) {
        const std::vector<Workload> suite = allWorkloads(sizes);
        ASSERT_EQ(suite.size(), 10u);
        for (const Workload &w : suite) {
            const std::size_t words = w.config.memoryWords;
            std::vector<Word> expected(words, 0);
            std::vector<bool> written(words, false);
            for (const MemorySegment &segment : w.inputs) {
                ASSERT_LE(segment.base + segment.words.size(), words)
                    << w.name;
                for (std::size_t i = 0; i < segment.words.size(); ++i) {
                    const std::size_t address = segment.base + i;
                    EXPECT_FALSE(written[address])
                        << w.name << " writes word " << address
                        << " twice";
                    written[address] = true;
                    expected[address] = segment.words[i];
                }
            }
            Memory memory(words);
            w.preload(memory);
            EXPECT_EQ(memory.snapshot(), expected) << w.name;
        }
    }
}

TEST(Workloads, StaticInstructionBudgetRespected)
{
    // Every PE program fits the 16-entry instruction store (NIns).
    for (const auto &w : allWorkloads(kSizes)) {
        for (const auto &pe : w.program.pes)
            EXPECT_LE(pe.size(), 16u) << w.name;
    }
}

} // namespace
} // namespace tia
