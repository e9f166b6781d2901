/**
 * @file
 * Pipeline-shape and configuration enumeration tests.
 */

#include <set>

#include <gtest/gtest.h>

#include "core/logging.hh"
#include "uarch/config.hh"

namespace tia {
namespace {

TEST(UarchConfig, EightShapesWithCanonicalNames)
{
    const auto &shapes = allShapes();
    ASSERT_EQ(shapes.size(), 8u);
    std::set<std::string> names;
    for (const auto &shape : shapes)
        names.insert(shape.name());
    const std::set<std::string> expected = {
        "TDX",      "TDX1|X2",   "TD|X",      "T|DX",
        "TD|X1|X2", "T|DX1|X2",  "T|D|X",     "T|D|X1|X2"};
    EXPECT_EQ(names, expected);
}

TEST(UarchConfig, DepthsMatchStagePartitions)
{
    for (const auto &shape : allShapes()) {
        const unsigned depth = shape.depth();
        EXPECT_GE(depth, 1u);
        EXPECT_LE(depth, 4u);
        EXPECT_EQ(depth, 1u + shape.splitTD + shape.splitDX +
                             shape.splitX);
        // Phase positions are ordered.
        EXPECT_LE(shape.segT(), shape.segD());
        EXPECT_LE(shape.segD(), shape.segX1());
        EXPECT_LE(shape.segX1(), shape.segX2());
        EXPECT_EQ(shape.segX2(), depth - 1);
    }
}

TEST(UarchConfig, SingleCycleIsDepthOne)
{
    const PipelineShape tdx{false, false, false};
    EXPECT_EQ(tdx.depth(), 1u);
    EXPECT_EQ(tdx.name(), "TDX");
}

TEST(UarchConfig, ThirtyTwoMicroarchitectures)
{
    const auto configs = allConfigs();
    EXPECT_EQ(configs.size(), 32u);
    std::set<std::string> names;
    for (const auto &config : configs)
        names.insert(config.name());
    EXPECT_EQ(names.size(), 32u); // all distinct
}

TEST(UarchConfig, Figure5SubsetIsBasePPQ)
{
    const auto configs = figure5Configs();
    EXPECT_EQ(configs.size(), 24u);
    for (std::size_t i = 0; i < configs.size(); i += 3) {
        EXPECT_FALSE(configs[i].predictPredicates);
        EXPECT_FALSE(configs[i].effectiveQueueStatus);
        EXPECT_TRUE(configs[i + 1].predictPredicates);
        EXPECT_FALSE(configs[i + 1].effectiveQueueStatus);
        EXPECT_TRUE(configs[i + 2].predictPredicates);
        EXPECT_TRUE(configs[i + 2].effectiveQueueStatus);
        EXPECT_EQ(configs[i].shape, configs[i + 1].shape);
        EXPECT_EQ(configs[i].shape, configs[i + 2].shape);
    }
}

TEST(UarchConfig, OptimizationSuffixesInNames)
{
    const PipelineShape shape{true, false, true};
    EXPECT_EQ((PeConfig{shape, false, false}).name(), "T|DX1|X2");
    EXPECT_EQ((PeConfig{shape, true, false}).name(), "T|DX1|X2 +P");
    EXPECT_EQ((PeConfig{shape, false, true}).name(), "T|DX1|X2 +Q");
    EXPECT_EQ((PeConfig{shape, true, true}).name(), "T|DX1|X2 +P+Q");
}

TEST(UarchConfig, ConfigListTrimsAndExpandsGroups)
{
    const auto list = parseConfigList("TDX, T|DX +P+Q ,fig5");
    ASSERT_EQ(list.size(), 2u + figure5Configs().size());
    EXPECT_EQ(list[0].name(), "TDX");
    EXPECT_EQ(list[1].name(), "T|DX +P+Q");
    EXPECT_EQ(std::vector<PeConfig>(list.begin() + 2, list.end()),
              figure5Configs());
    EXPECT_EQ(parseConfigList("all"), allConfigs());
    EXPECT_EQ(parseConfigList("TDX, all").size(), 33u);
}

TEST(UarchConfig, ConfigListRejectsEmptyAndUnknownEntries)
{
    EXPECT_THROW(parseConfigList(""), FatalError);
    EXPECT_THROW(parseConfigList("TDX,"), FatalError);
    EXPECT_THROW(parseConfigList("TDX, ,T|DX"), FatalError);
    EXPECT_THROW(parseConfigList("TDX,functional"), FatalError);
    EXPECT_THROW(parseConfigList("tdx"), FatalError);
}

} // namespace
} // namespace tia
