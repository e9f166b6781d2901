/**
 * @file
 * Sweep determinism outside the pipeline mechanics: the default --jobs,
 * CPI tables identical for every jobs count, the DSE's point order (the
 * CPI matrix itself is pinned by tests/test_sweep_pipeline.cc). Also
 * pins the two sweep-correctness fixes: the DSE frequency grid
 * following the sweep's tech model, and the unified default cycle
 * budget.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.hh"
#include "uarch/cycle_fabric.hh"
#include "vlsi/dse.hh"
#include "vlsi/timing.hh"
#include "workloads/cpi.hh"
#include "workloads/runner.hh"

namespace {

using namespace tia;

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
    // The DSE is one serial loop nest. Its point order is config, then
    // VT, then VDD, then ascending frequency: paretoFrontier keeps the
    // earliest point of an exact tie, so this order decides which
    // config name tia-sweep prints.
    CpiTable table;
    for (const PeConfig &config : allConfigs())
        table[config.name()] = 1.5;
    const DesignSpace dse(std::move(table));
    const std::vector<DesignPoint> points = dse.enumerate();

    std::size_t i = 0;
    for (const PeConfig &config : allConfigs()) {
        for (VtClass vt :
             {VtClass::Low, VtClass::Standard, VtClass::High}) {
            for (double vdd : DesignSpace::supplyGrid(vt)) {
                const double fmax =
                    maxFrequencyMhz(config, vdd, vt, dse.tech());
                double lastF = 0.0;
                for (double f : dse.frequencyGridMhz(vt, vdd)) {
                    if (f > fmax)
                        continue;
                    EXPECT_GT(f, lastF) << config.name();
                    lastF = f;
                    ASSERT_LT(i, points.size());
                    const DesignPoint want =
                        dse.evaluate(config, vt, vdd, f);
                    const DesignPoint &got = points[i];
                    EXPECT_EQ(got.config, config) << i;
                    EXPECT_EQ(got.vt, vt) << i;
                    // Bit-identical, not approximately equal.
                    EXPECT_EQ(got.vdd, vdd) << i;
                    EXPECT_EQ(got.freqMhz, f) << i;
                    EXPECT_EQ(got.maxFreqMhz, want.maxFreqMhz) << i;
                    EXPECT_EQ(got.cpi, want.cpi) << i;
                    EXPECT_EQ(got.nsPerInstruction,
                              want.nsPerInstruction)
                        << i;
                    EXPECT_EQ(got.pjPerInstruction,
                              want.pjPerInstruction)
                        << i;
                    EXPECT_EQ(got.areaUm2, want.areaUm2) << i;
                    EXPECT_EQ(got.powerMw, want.powerMw) << i;
                    ++i;
                }
            }
        }
    }
    EXPECT_EQ(i, points.size());
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
