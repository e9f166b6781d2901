/**
 * @file
 * PerfCounters / CpiStack arithmetic tests.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "uarch/counters.hh"

namespace tia {
namespace {

PerfCounters
sample()
{
    PerfCounters c;
    c.cycles = 100;
    c.retired = 50;
    c.quashed = 5;
    c.predicateHazard = 20;
    c.dataHazard = 10;
    c.forbidden = 5;
    c.noTrigger = 10;
    c.predicateWrites = 10;
    c.predictions = 8;
    c.mispredictions = 2;
    return c;
}

TEST(Counters, CpiAndRates)
{
    const PerfCounters c = sample();
    EXPECT_DOUBLE_EQ(c.cpi(), 2.0);
    EXPECT_DOUBLE_EQ(c.predicateWriteRate(), 0.2);
    EXPECT_DOUBLE_EQ(c.predictionAccuracy(), 0.75);
}

TEST(Counters, ZeroRetiredCpiIsNan)
{
    // A PE that retired nothing has no CPI; reporting 0.0 (a perfect
    // score) silently skewed averages and tables. NaN propagates and
    // formats as "-".
    PerfCounters c;
    c.cycles = 10;
    EXPECT_TRUE(std::isnan(c.cpi()));
    EXPECT_DOUBLE_EQ(c.predicateWriteRate(), 0.0);
    EXPECT_DOUBLE_EQ(c.predictionAccuracy(), 1.0);
    const CpiStack stack = cpiStack(c);
    EXPECT_DOUBLE_EQ(stack.total(), 0.0);
}

TEST(Counters, StackDivideByZeroYieldsNan)
{
    // Averaging an empty workload set must not fabricate a 0-CPI
    // stack; every component goes NaN instead.
    CpiStack empty;
    empty /= 0.0;
    EXPECT_TRUE(std::isnan(empty.retired));
    EXPECT_TRUE(std::isnan(empty.quashed));
    EXPECT_TRUE(std::isnan(empty.predicateHazard));
    EXPECT_TRUE(std::isnan(empty.dataHazard));
    EXPECT_TRUE(std::isnan(empty.forbidden));
    EXPECT_TRUE(std::isnan(empty.noTrigger));
    EXPECT_TRUE(std::isnan(empty.total()));
}

TEST(Counters, FormatCpiRendersNonFiniteAsDash)
{
    EXPECT_EQ(formatCpi(2.0), "2.000");
    EXPECT_EQ(formatCpi(1.2345, 2), "1.23");
    EXPECT_EQ(formatCpi(std::numeric_limits<double>::quiet_NaN()), "-");
    EXPECT_EQ(formatCpi(std::numeric_limits<double>::infinity()), "-");
    PerfCounters c;
    c.cycles = 10;
    EXPECT_EQ(formatCpi(c.cpi()), "-");
}

TEST(Counters, StackNormalizesByRetired)
{
    const CpiStack stack = cpiStack(sample());
    EXPECT_DOUBLE_EQ(stack.retired, 1.0);
    EXPECT_DOUBLE_EQ(stack.quashed, 0.1);
    EXPECT_DOUBLE_EQ(stack.predicateHazard, 0.4);
    EXPECT_DOUBLE_EQ(stack.dataHazard, 0.2);
    EXPECT_DOUBLE_EQ(stack.forbidden, 0.1);
    EXPECT_DOUBLE_EQ(stack.noTrigger, 0.2);
    EXPECT_DOUBLE_EQ(stack.total(), 2.0); // == CPI
}

TEST(Counters, AccumulateAndAverage)
{
    CpiStack avg;
    avg += cpiStack(sample());
    avg += cpiStack(sample());
    avg /= 2.0;
    EXPECT_DOUBLE_EQ(avg.total(), 2.0);
    EXPECT_DOUBLE_EQ(avg.retired, 1.0);
}

} // namespace
} // namespace tia
