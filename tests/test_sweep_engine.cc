/**
 * @file
 * Sweep determinism outside the pipeline mechanics: ThreadPool basics,
 * CPI tables and DSE enumeration identical for every jobs count (the
 * CPI matrix itself is pinned by tests/test_sweep_pipeline.cc). Also
 * pins the two sweep-correctness fixes: the DSE frequency grid
 * following the sweep's tech model, and the unified default cycle
 * budget.
 */

#include <algorithm>
#include <atomic>

#include <gtest/gtest.h>

#include "exec/thread_pool.hh"
#include "uarch/cycle_fabric.hh"
#include "vlsi/dse.hh"
#include "workloads/cpi.hh"
#include "workloads/runner.hh"

namespace {

using namespace tia;

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&done] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 100);

    // The pool is reusable after a wait().
    for (int i = 0; i < 10; ++i)
        pool.submit([&done] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 110);
}

TEST(ThreadPool, DefaultConcurrencyIsPositive)
{
    EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
}

std::vector<PeConfig>
matrixConfigs()
{
    return {
        PeConfig{PipelineShape{false, false, false}, false, false},
        PeConfig{PipelineShape{true, false, false}, true, true},
        PeConfig{PipelineShape{true, true, true}, true, true},
    };
}

TEST(SweepDeterminism, ParallelCpiTablesMatchSerial)
{
    const WorkloadSizes sizes = WorkloadSizes::small();
    const auto configs = matrixConfigs();
    EXPECT_EQ(measureCpiTable(sizes, configs, 1),
              measureCpiTable(sizes, configs, 4));
    EXPECT_EQ(suiteAverageCpiTable(sizes, configs, 1),
              suiteAverageCpiTable(sizes, configs, 4));
}

TEST(SweepDeterminism, ParallelDseEnumerateMatchesSerial)
{
    CpiTable table;
    for (const PeConfig &config : allConfigs())
        table[config.name()] = 1.5;
    const DesignSpace dse(std::move(table));

    const auto serial = dse.enumerateStreamed(1).points;
    const auto parallel = dse.enumerateStreamed(4).points;

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const DesignPoint &a = serial[i];
        const DesignPoint &b = parallel[i];
        EXPECT_EQ(a.config, b.config) << i;
        EXPECT_EQ(a.vt, b.vt) << i;
        // Bit-identical, not approximately equal: the parallel sweep
        // runs the same arithmetic on the same shard inputs.
        EXPECT_EQ(a.vdd, b.vdd) << i;
        EXPECT_EQ(a.freqMhz, b.freqMhz) << i;
        EXPECT_EQ(a.maxFreqMhz, b.maxFreqMhz) << i;
        EXPECT_EQ(a.cpi, b.cpi) << i;
        EXPECT_EQ(a.nsPerInstruction, b.nsPerInstruction) << i;
        EXPECT_EQ(a.pjPerInstruction, b.pjPerInstruction) << i;
        EXPECT_EQ(a.areaUm2, b.areaUm2) << i;
        EXPECT_EQ(a.powerMw, b.powerMw) << i;
    }
}

// Regression for the frequency-grid bugfix: the near/sub-threshold
// refinements must follow the sweep's tech model, not a
// default-constructed one.
TEST(DseGrid, FrequencyGridFollowsTheSweepTechModel)
{
    CpiTable table;
    for (const PeConfig &config : allConfigs())
        table[config.name()] = 1.5;

    // Nominal corner: std-VT threshold 0.33 V, so 0.7 V is outside
    // the near-threshold band (0.33 + 0.35 = 0.68) and gets no 50 MHz
    // refinement.
    const DesignSpace nominal(table);
    const auto base = nominal.frequencyGridMhz(VtClass::Standard, 0.7);
    EXPECT_EQ(base.size(), 15u);

    // A high-threshold skewed corner moves the band up: 0.7 V is now
    // near-threshold and must be refined. Before the fix the grid
    // ignored the instance model and stayed at 15 points.
    const TechModel skewed(0.30, 0.50, 0.65);
    const DesignSpace corner(table, skewed);
    const auto refined = corner.frequencyGridMhz(VtClass::Standard, 0.7);
    EXPECT_EQ(refined.size(), 19u);
    EXPECT_NE(std::find(refined.begin(), refined.end(), 150.0),
              refined.end());

    // The subthreshold high-VT refinement moves with the corner too:
    // 0.6 V is subthreshold for a 0.65 V high-VT device.
    const auto sub = corner.frequencyGridMhz(VtClass::High, 0.6);
    EXPECT_NE(std::find(sub.begin(), sub.end(), 10.0), sub.end());
    const auto nominal_sub =
        nominal.frequencyGridMhz(VtClass::High, 0.6);
    EXPECT_EQ(std::find(nominal_sub.begin(), nominal_sub.end(), 10.0),
              nominal_sub.end());

    // And gridSize follows suit.
    EXPECT_GT(corner.gridSize(), nominal.gridSize());
}

// Regression for the unified cycle-budget defaults: the same workload
// must hang-classify identically from every entry point.
TEST(RunBudgets, DefaultCycleBudgetsAgreeAcrossEntryPoints)
{
    EXPECT_EQ(FabricRunOptions{}.maxCycles, kDefaultMaxCycles);
    EXPECT_EQ(CycleRunOptions{}.maxCycles, kDefaultMaxCycles);
    EXPECT_EQ(FabricRunOptions{}.maxCycles,
              CycleRunOptions{}.maxCycles);
    EXPECT_EQ(FabricRunOptions{}.quiescenceWindow,
              CycleRunOptions{}.quiescenceWindow);
}

} // namespace
