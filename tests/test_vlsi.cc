/**
 * @file
 * VLSI model tests: technology scaling laws, the paper's Section 4 /
 * 5.4 calibration anchors, critical-path structure, and design-space /
 * Pareto properties.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "vlsi/area_power.hh"
#include "vlsi/dse.hh"
#include "vlsi/tech.hh"
#include "vlsi/timing.hh"

namespace tia {
namespace {

const PeConfig kTdx{PipelineShape{false, false, false}, false, false};
const PeConfig kDeep{PipelineShape{true, true, true}, false, false};
const PeConfig kDeepP{PipelineShape{true, true, true}, true, false};
const PeConfig kDeepQ{PipelineShape{true, true, true}, false, true};
const PeConfig kDeepPQ{PipelineShape{true, true, true}, true, true};

TEST(Tech, Fo4DecreasesWithSupply)
{
    TechModel tech;
    for (VtClass vt :
         {VtClass::Low, VtClass::Standard, VtClass::High}) {
        double previous = 1e18;
        for (double vdd = 0.4; vdd <= 1.01; vdd += 0.05) {
            const double fo4 = tech.fo4Ps(vdd, vt);
            EXPECT_LT(fo4, previous) << vtName(vt) << " @ " << vdd;
            previous = fo4;
        }
    }
}

TEST(Tech, VtClassOrderingHoldsEverywhere)
{
    TechModel tech;
    for (double vdd = 0.4; vdd <= 1.01; vdd += 0.1) {
        // Delay: low < std < high.
        EXPECT_LT(tech.fo4Ps(vdd, VtClass::Low),
                  tech.fo4Ps(vdd, VtClass::Standard));
        EXPECT_LT(tech.fo4Ps(vdd, VtClass::Standard),
                  tech.fo4Ps(vdd, VtClass::High));
        // Leakage: low > std > high.
        EXPECT_GT(tech.leakageFactor(vdd, VtClass::Low),
                  tech.leakageFactor(vdd, VtClass::Standard));
        EXPECT_GT(tech.leakageFactor(vdd, VtClass::Standard),
                  tech.leakageFactor(vdd, VtClass::High));
    }
}

TEST(Tech, NearThresholdDelayExplodes)
{
    // The paper's subthreshold high-VT points run at tens of MHz: FO4
    // at 0.4 V high-VT must be >10x the nominal value.
    TechModel tech;
    EXPECT_GT(tech.fo4Ps(0.4, VtClass::High),
              10.0 * tech.fo4Ps(1.0, VtClass::High));
}

TEST(Tech, LeakageNormalizedAtStdNominal)
{
    TechModel tech;
    EXPECT_NEAR(tech.leakageFactor(1.0, VtClass::Standard), 1.0, 1e-9);
}

TEST(Timing, TriggerStageAnchors)
{
    // Section 5.4: 53.6 FO4 trigger logic (64.3 with speculation);
    // queue-status accounting has no timing impact; the unspeculated
    // T|D|X1|X2 closes at 1184 MHz at nominal voltage.
    EXPECT_NEAR(criticalPathFo4(kDeep), 53.6 + 3.0, 1e-9);
    EXPECT_NEAR(criticalPathFo4(kDeepP), 64.3 + 3.0, 1e-9);
    EXPECT_EQ(criticalPathFo4(kDeepQ), criticalPathFo4(kDeep));
    EXPECT_EQ(criticalPathFo4(kDeepPQ), criticalPathFo4(kDeepP));
    EXPECT_NEAR(maxFrequencyMhz(kDeep, 1.0, VtClass::Standard), 1184.0,
                5.0);
}

TEST(Timing, BalancedPipelinesSitIn50To60Fo4)
{
    // "placing the balanced pipeline delay in the 50-60 FO4 range";
    // only trigger-split designs can reach it, TD-combined designs sit
    // above, the single-cycle design far above.
    for (const auto &shape : allShapes()) {
        const double crit = criticalPathFo4({shape, false, false});
        if (shape.splitTD) {
            EXPECT_NEAR(crit, 56.6, 1e-9) << shape.name();
        } else if (shape.depth() > 1) {
            EXPECT_GT(crit, 60.0) << shape.name();
            EXPECT_LT(crit, 80.0) << shape.name();
        } else {
            EXPECT_GT(crit, 90.0) << shape.name();
        }
    }
}

TEST(Timing, DeeperNeverSlowerThanShallowerSameOpts)
{
    // Adding a pipeline register can only shorten (or keep) the
    // critical path.
    const double tdx = criticalPathFo4(kTdx);
    for (const auto &shape : allShapes()) {
        EXPECT_LE(criticalPathFo4({shape, false, false}), tdx)
            << shape.name();
    }
}

TEST(AreaPower, SingleCycleAnchor)
{
    AreaPowerModel model;
    EXPECT_NEAR(model.areaUm2(kTdx), 64'435.0, 1e-6);
    EXPECT_NEAR(model.calibrationPowerMw(kTdx), 1.95, 0.01);
}

TEST(AreaPower, Section54Anchors)
{
    AreaPowerModel model;
    EXPECT_NEAR(model.areaUm2(kDeep), 63'991.4, 1e-6);
    EXPECT_NEAR(model.areaUm2(kDeepP), 64'278.4, 1e-6);
    EXPECT_NEAR(model.areaUm2(kDeepQ), 64'131.8, 1e-6);
    EXPECT_NEAR(model.areaUm2(kDeepPQ), 64'895.4, 1e-6);
    EXPECT_NEAR(model.calibrationPowerMw(kDeep), 2.852, 0.01);
    // +P costs ~7% power; +Q costs nothing measurable.
    EXPECT_NEAR(model.calibrationPowerMw(kDeepP) /
                    model.calibrationPowerMw(kDeep),
                1.07, 0.005);
    // "no measurable difference in power consumption" — only the
    // +Q adders' leakage (sub-milliwatt) separates them.
    EXPECT_NEAR(model.calibrationPowerMw(kDeepQ),
                model.calibrationPowerMw(kDeep), 1e-3);
}

TEST(AreaPower, PaddingAlternativeCosts)
{
    // Section 5.4: padding the output queues would cost +13% area and
    // +12% power instead.
    AreaPowerModel model;
    ImplementationOptions padded;
    padded.paddedOutputQueues = true;
    EXPECT_NEAR(model.areaUm2(kDeep, padded), 72'439.4, 1e-6);
    EXPECT_NEAR(model.calibrationPowerMw(kDeep, padded) /
                    model.calibrationPowerMw(kDeep),
                1.12, 0.01);
    // Padding is an *alternative* to +Q, not a combination.
    EXPECT_ANY_THROW(model.areaUm2(kDeepQ, padded));
}

TEST(AreaPower, PipelineRegisterCostIsLinear)
{
    // "the power increases linearly with the addition of each pipeline
    // register ... 0.301 mW per pipeline register" at 500 MHz.
    AreaPowerModel model;
    const double two_stage = model.calibrationPowerMw(
        {PipelineShape{true, false, false}, false, false});
    for (const auto &shape : allShapes()) {
        const double power =
            model.calibrationPowerMw({shape, false, false});
        if (shape.depth() == 1) {
            // The single-cycle design differs additionally by its
            // slightly larger (sized-up) area's leakage.
            EXPECT_NEAR(power - two_stage, -0.301, 2e-3) << shape.name();
        } else {
            EXPECT_NEAR(power - two_stage,
                        0.301 * (shape.depth() - 2.0), 1e-9)
                << shape.name();
        }
    }
}

TEST(AreaPower, DynamicEnergyScalesQuadraticallyWithVdd)
{
    AreaPowerModel model;
    const double e10 =
        model.dynamicEnergyPerCyclePj(kDeep, 1.0, 500, 1184);
    const double e05 =
        model.dynamicEnergyPerCyclePj(kDeep, 0.5, 500, 1184);
    EXPECT_NEAR(e05 / e10, 0.25, 1e-9);
}

TEST(AreaPower, TimingPressureInflatesEnergy)
{
    AreaPowerModel model;
    const double relaxed =
        model.dynamicEnergyPerCyclePj(kDeep, 1.0, 200, 1000);
    const double pushed =
        model.dynamicEnergyPerCyclePj(kDeep, 1.0, 1000, 1000);
    EXPECT_GT(pushed, 2.0 * relaxed);
}

CpiTable
flatCpi(double value)
{
    CpiTable table;
    for (const PeConfig &config : allConfigs())
        table[config.name()] = value;
    return table;
}

TEST(Dse, GridMatchesMethodologyShape)
{
    // Standard VT sweeps five supplies, low/high four; base frequency
    // granularity 100 MHz to 1.5 GHz; subthreshold high-VT refinement
    // reaches down to 10 MHz.
    EXPECT_EQ(DesignSpace::supplyGrid(VtClass::Standard).size(), 5u);
    EXPECT_EQ(DesignSpace::supplyGrid(VtClass::Low).size(), 4u);
    EXPECT_EQ(DesignSpace::supplyGrid(VtClass::High).size(), 4u);
    const DesignSpace dse(flatCpi(1.5));
    const auto base = dse.frequencyGridMhz(VtClass::Standard, 1.0);
    EXPECT_EQ(base.size(), 15u);
    EXPECT_EQ(base.front(), 100.0);
    EXPECT_EQ(base.back(), 1500.0);
    const auto sub = dse.frequencyGridMhz(VtClass::High, 0.4);
    EXPECT_EQ(sub.front(), 10.0);
    // The attempted grid exceeds the paper's 4,000-point count.
    EXPECT_GT(dse.gridSize(), 4000u);
}

TEST(Dse, EvaluateRejectsFrequenciesAboveClosure)
{
    DesignSpace dse(flatCpi(1.5));
    EXPECT_ANY_THROW(dse.evaluate(kDeep, VtClass::Standard, 1.0, 1400.0));
    EXPECT_NO_THROW(dse.evaluate(kDeep, VtClass::Standard, 1.0, 1100.0));
}

TEST(Dse, DelayIsCpiOverFrequency)
{
    DesignSpace dse(flatCpi(2.0));
    const DesignPoint p =
        dse.evaluate(kDeep, VtClass::Standard, 1.0, 500.0);
    EXPECT_NEAR(p.nsPerInstruction, 2.0 * 1000.0 / 500.0, 1e-9);
    EXPECT_GT(p.pjPerInstruction, 0.0);
    EXPECT_GT(p.powerMw, 0.0);
}

TEST(Dse, ParetoFrontierIsNonDominatedAndSorted)
{
    DesignSpace dse(flatCpi(1.5));
    const auto points = dse.enumerate();
    EXPECT_GT(points.size(), 1000u);
    const auto frontier = DesignSpace::paretoFrontier(points);
    ASSERT_GT(frontier.size(), 2u);
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GT(frontier[i].nsPerInstruction,
                  frontier[i - 1].nsPerInstruction);
        EXPECT_LT(frontier[i].pjPerInstruction,
                  frontier[i - 1].pjPerInstruction);
    }
    // No enumerated point strictly dominates a frontier point.
    for (const auto &f : frontier) {
        for (const auto &p : points) {
            EXPECT_FALSE(p.nsPerInstruction < f.nsPerInstruction &&
                         p.pjPerInstruction < f.pjPerInstruction)
                << "frontier point dominated";
        }
    }
}

TEST(Dse, ParetoFrontierWeakDominanceRejectsTies)
{
    // freqMhz carries each point's enumeration index, so the test can
    // tell exact (ns, pJ) duplicates apart.
    auto point = [](double ns, double pj, double index) {
        DesignPoint p;
        p.nsPerInstruction = ns;
        p.pjPerInstruction = pj;
        p.freqMhz = index;
        return p;
    };

    // Weak dominance: an exact duplicate and an equal-energy slower
    // point are dropped, an equal-delay point with less energy wins.
    std::vector<DesignPoint> points = {
        point(2.0, 5.0, 0), point(2.0, 5.0, 1), point(3.0, 5.0, 2),
        point(2.0, 4.0, 3), point(1.0, 9.0, 4)};
    auto frontier = DesignSpace::paretoFrontier(points);
    ASSERT_EQ(frontier.size(), 2u);
    EXPECT_EQ(frontier[0].freqMhz, 4.0);
    EXPECT_EQ(frontier[1].freqMhz, 3.0);
    points.push_back(point(0.5, 3.0, 5)); // dominates everything
    frontier = DesignSpace::paretoFrontier(points);
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_EQ(frontier[0].freqMhz, 5.0);

    // Of an exact tie the earliest point is kept. 64 points, well past
    // the 16 below which std::sort never partitions: four frontier
    // values, each tied a dozen times or more, interleaved with
    // dominated points.
    points.clear();
    for (int i = 0; i < 64; ++i) {
        const double ns = 1.0 + i % 4;
        const double pj = i % 5 == 4 ? 20.0 : 10.0 - ns;
        points.push_back(point(ns, pj, i));
    }
    frontier = DesignSpace::paretoFrontier(points);
    ASSERT_EQ(frontier.size(), 4u);
    for (const DesignPoint &f : frontier) {
        const auto first = std::find_if(
            points.begin(), points.end(), [&](const DesignPoint &p) {
                return p.nsPerInstruction == f.nsPerInstruction &&
                       p.pjPerInstruction == f.pjPerInstruction;
            });
        EXPECT_EQ(f.freqMhz, first->freqMhz) << "ns " << f.nsPerInstruction;
    }
}

TEST(Dse, LowerCpiNeverHurts)
{
    // With all else equal, a microarchitecture with lower CPI yields
    // strictly better delay and energy per instruction.
    DesignSpace fast(flatCpi(1.2));
    DesignSpace slow(flatCpi(2.4));
    const auto a = fast.evaluate(kDeep, VtClass::Standard, 0.8, 300.0);
    const auto b = slow.evaluate(kDeep, VtClass::Standard, 0.8, 300.0);
    EXPECT_LT(a.nsPerInstruction, b.nsPerInstruction);
    EXPECT_LT(a.pjPerInstruction, b.pjPerInstruction);
}

TEST(Dse, MissingCpiEntryIsAnError)
{
    DesignSpace dse(CpiTable{});
    EXPECT_ANY_THROW(dse.cpiFor(kDeep));
}

TEST(Dse, PowerDensityUsesArea)
{
    DesignSpace dse(flatCpi(1.5));
    const auto p = dse.evaluate(kDeep, VtClass::Standard, 1.0, 500.0);
    EXPECT_NEAR(p.powerDensity(), p.powerMw / (p.areaUm2 * 1e-6), 1e-9);
}

} // namespace
} // namespace tia
