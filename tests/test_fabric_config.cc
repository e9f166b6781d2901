/**
 * @file
 * FabricConfig / FabricBuilder validation tests: every channel needs
 * exactly one producer and one consumer; port bindings and initial
 * state must be in range; channelEnds() names each channel's ends.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/logging.hh"
#include "sim/fabric_config.hh"

namespace tia {
namespace {

TEST(FabricConfig, MinimalSinglePeValidates)
{
    FabricBuilder builder(ArchParams{}, 1);
    EXPECT_NO_THROW(builder.build());
}

TEST(FabricConfig, ConnectWiresProducerToConsumer)
{
    FabricBuilder builder(ArchParams{}, 2);
    const unsigned ch = builder.connect(0, 3, 1, 0);
    const FabricConfig config = builder.build();
    EXPECT_EQ(config.numChannels, 1u);
    EXPECT_EQ(config.outputChannel[0][3], static_cast<int>(ch));
    EXPECT_EQ(config.inputChannel[1][0], static_cast<int>(ch));
}

TEST(FabricConfig, ReadPortCreatesTwoChannels)
{
    FabricBuilder builder(ArchParams{}, 1);
    builder.addReadPort(0, 0, 0);
    const FabricConfig config = builder.build();
    EXPECT_EQ(config.numChannels, 2u);
    ASSERT_EQ(config.readPorts.size(), 1u);
}

TEST(FabricConfig, ChannelWithoutConsumerRejected)
{
    FabricBuilder builder(ArchParams{}, 1);
    const unsigned ch = builder.newChannel();
    builder.bindOutput(0, 0, ch);
    EXPECT_THROW(builder.build(), FatalError);
}

TEST(FabricConfig, ChannelWithoutProducerRejected)
{
    FabricBuilder builder(ArchParams{}, 1);
    const unsigned ch = builder.newChannel();
    builder.bindInput(0, 0, ch);
    EXPECT_THROW(builder.build(), FatalError);
}

TEST(FabricConfig, TwoProducersRejected)
{
    FabricBuilder builder(ArchParams{}, 2);
    const unsigned ch = builder.connect(0, 0, 1, 0);
    builder.bindOutput(1, 1, ch); // second producer
    EXPECT_THROW(builder.build(), FatalError);
}

TEST(FabricConfig, TwoConsumersRejected)
{
    FabricBuilder builder(ArchParams{}, 2);
    const unsigned ch = builder.connect(0, 0, 1, 0);
    builder.bindInput(0, 1, ch); // second consumer
    EXPECT_THROW(builder.build(), FatalError);
}

TEST(FabricConfig, OutOfRangePortRejected)
{
    FabricBuilder builder(ArchParams{}, 1);
    EXPECT_ANY_THROW(builder.bindOutput(0, 7, builder.newChannel()));
    EXPECT_ANY_THROW(builder.bindInput(0, 9, builder.newChannel()));
    EXPECT_ANY_THROW(builder.bindInput(3, 0, builder.newChannel()));
}

TEST(FabricConfig, OversizedInitialRegsRejected)
{
    FabricBuilder builder(ArchParams{}, 1);
    EXPECT_ANY_THROW(
        builder.setInitialRegs(0, std::vector<Word>(9, 0))); // NRegs = 8
}

TEST(FabricConfig, InitialPredsBeyondNPredsRejected)
{
    FabricBuilder builder(ArchParams{}, 1);
    builder.setInitialPreds(0, std::uint64_t{1} << 8); // p8 doesn't exist
    EXPECT_THROW(builder.build(), FatalError);
}

TEST(FabricConfig, SplitWritePortBindsTwoPes)
{
    FabricBuilder builder(ArchParams{}, 2);
    builder.addWritePortSplit(0, 1, 1, 2);
    const FabricConfig config = builder.build();
    ASSERT_EQ(config.writePorts.size(), 1u);
    EXPECT_EQ(config.outputChannel[0][1],
              static_cast<int>(config.writePorts[0].addrChannel));
    EXPECT_EQ(config.outputChannel[1][2],
              static_cast<int>(config.writePorts[0].dataChannel));
}

using Kind = ChannelEnd::Kind;

TEST(ChannelEnds, PeToPeLink)
{
    FabricBuilder builder(ArchParams{}, 2);
    const unsigned ch = builder.connect(0, 3, 1, 2);
    const std::vector<ChannelEnds> ends = builder.build().channelEnds();
    ASSERT_EQ(ends.size(), 1u);
    EXPECT_EQ(ends[ch].producer, (ChannelEnd{Kind::Pe, 0, 3}));
    EXPECT_EQ(ends[ch].consumer, (ChannelEnd{Kind::Pe, 1, 2}));
}

TEST(ChannelEnds, ReadPortConsumesAddressesAndProducesData)
{
    FabricBuilder builder(ArchParams{}, 2);
    builder.connect(0, 0, 1, 0);
    builder.addReadPort(1, 2, 3);
    const FabricConfig config = builder.build();
    const std::vector<ChannelEnds> ends = config.channelEnds();
    ASSERT_EQ(ends.size(), 3u);
    const ReadPortSpec &port = config.readPorts.at(0);
    EXPECT_EQ(ends[port.addrChannel].producer, (ChannelEnd{Kind::Pe, 1, 2}));
    EXPECT_EQ(ends[port.addrChannel].consumer,
              (ChannelEnd{Kind::ReadPort, 0, 0}));
    EXPECT_EQ(ends[port.dataChannel].producer,
              (ChannelEnd{Kind::ReadPort, 0, 0}));
    EXPECT_EQ(ends[port.dataChannel].consumer, (ChannelEnd{Kind::Pe, 1, 3}));
}

TEST(ChannelEnds, WritePortOnOnePe)
{
    FabricBuilder builder(ArchParams{}, 1);
    builder.addReadPort(0, 0, 0);
    builder.addWritePort(0, 1, 2);
    const FabricConfig config = builder.build();
    const std::vector<ChannelEnds> ends = config.channelEnds();
    ASSERT_EQ(ends.size(), 4u);
    const WritePortSpec &port = config.writePorts.at(0);
    EXPECT_EQ(ends[port.addrChannel].producer, (ChannelEnd{Kind::Pe, 0, 1}));
    EXPECT_EQ(ends[port.addrChannel].consumer,
              (ChannelEnd{Kind::WritePort, 0, 0}));
    EXPECT_EQ(ends[port.dataChannel].producer, (ChannelEnd{Kind::Pe, 0, 2}));
    EXPECT_EQ(ends[port.dataChannel].consumer,
              (ChannelEnd{Kind::WritePort, 0, 1}));
}

TEST(ChannelEnds, SplitWritePortAcrossTwoPes)
{
    FabricBuilder builder(ArchParams{}, 2);
    builder.addWritePortSplit(0, 0, 1, 0);
    builder.addWritePortSplit(1, 1, 0, 1);
    const FabricConfig config = builder.build();
    const std::vector<ChannelEnds> ends = config.channelEnds();
    ASSERT_EQ(ends.size(), 4u);
    for (unsigned wp = 0; wp < 2; ++wp) {
        const WritePortSpec &port = config.writePorts.at(wp);
        EXPECT_EQ(ends[port.addrChannel].producer,
                  (ChannelEnd{Kind::Pe, wp, wp}));
        EXPECT_EQ(ends[port.addrChannel].consumer,
                  (ChannelEnd{Kind::WritePort, wp, 0}));
        EXPECT_EQ(ends[port.dataChannel].producer,
                  (ChannelEnd{Kind::Pe, 1 - wp, wp}));
        EXPECT_EQ(ends[port.dataChannel].consumer,
                  (ChannelEnd{Kind::WritePort, wp, 1}));
    }
}

} // namespace
} // namespace tia
