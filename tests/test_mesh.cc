/**
 * @file
 * Mesh fabric tests: wiring topology and an end-to-end token relay
 * around a 2x2 array (the paper's FPGA prototype arranges PEs in up to
 * 4x4 nearest-neighbor arrays).
 */

#include <gtest/gtest.h>

#include "core/assembler.hh"
#include "sim/mesh.hh"
#include "uarch/cycle_fabric.hh"

namespace tia {
namespace {

TEST(Mesh, WiringCounts)
{
    // rows x cols mesh: 2 channels per adjacent pair, both directions.
    for (unsigned rows = 1; rows <= 4; ++rows) {
        for (unsigned cols = 1; cols <= 4; ++cols) {
            MeshBuilder builder(ArchParams{}, rows, cols);
            const FabricConfig config = builder.build();
            const unsigned links =
                rows * (cols - 1) + cols * (rows - 1);
            EXPECT_EQ(config.numChannels, 2 * links)
                << rows << "x" << cols;
            EXPECT_EQ(config.numPes, rows * cols);
        }
    }
}

TEST(Mesh, NeighborPortsAreCrossWired)
{
    MeshBuilder builder(ArchParams{}, 2, 2);
    const FabricConfig config = builder.build();
    // (0,0) east output must feed (0,1) west input.
    const int ch = config.outputChannel[builder.pe(0, 0)][kEast];
    ASSERT_NE(ch, kUnbound);
    EXPECT_EQ(config.inputChannel[builder.pe(0, 1)][kWest], ch);
    // And the reverse direction is a different channel.
    const int back = config.outputChannel[builder.pe(0, 1)][kWest];
    ASSERT_NE(back, kUnbound);
    EXPECT_NE(back, ch);
    EXPECT_EQ(config.inputChannel[builder.pe(0, 0)][kEast], back);
}

TEST(Mesh, EdgePortsStayUnbound)
{
    MeshBuilder builder(ArchParams{}, 2, 2);
    const FabricConfig config = builder.build();
    EXPECT_EQ(config.inputChannel[builder.pe(0, 0)][kNorth], kUnbound);
    EXPECT_EQ(config.inputChannel[builder.pe(0, 0)][kWest], kUnbound);
    EXPECT_EQ(config.outputChannel[builder.pe(1, 1)][kSouth], kUnbound);
    EXPECT_EQ(config.outputChannel[builder.pe(1, 1)][kEast], kUnbound);
}

TEST(Mesh, EdgePortValidation)
{
    MeshBuilder builder(ArchParams{}, 2, 2);
    // North port of a bottom-row PE is interior, not edge.
    EXPECT_ANY_THROW(builder.addEdgeReadPort(1, 0, kNorth));
    EXPECT_NO_THROW(builder.addEdgeReadPort(0, 0, kNorth));
}

TEST(Mesh, TokenRelayAroundTheRing)
{
    // Pass a counter clockwise around the 2x2 ring ten times, each PE
    // incrementing it: (0,0) -> (0,1) -> (1,1) -> (1,0) -> (0,0).
    // PE (0,0) seeds the token and checks for completion.
    const Program program = assemble(
        // PE 0 = (0,0): seed once, then relay east; after 40 hops the
        // token value reaches 40: stop.
        ".pe 0\n"
        "when %p == XXXXXX00: mov %o1.0, #0; set %p = ZZZZZZ01;\n"
        "when %p == XXXXXX01 with %i2.0: uge %p4, %i2, #40; "
        "set %p = ZZZZZZ10;\n"
        "when %p == XXX0XX10: add %o1.0, %i2, #1; deq %i2; "
        "set %p = ZZZZZZ01;\n"
        "when %p == XXX1XX10: halt;\n"
        // PE 1 = (0,1): west in -> south out.
        ".pe 1\n"
        "when %p == XXXXXXX0 with %i3.0: add %o2.0, %i3, #1; deq %i3;\n"
        // PE 2 = (1,0): east in -> north out.
        ".pe 2\n"
        "when %p == XXXXXXX0 with %i1.0: add %o0.0, %i1, #1; deq %i1;\n"
        // PE 3 = (1,1): north in -> west out.
        ".pe 3\n"
        "when %p == XXXXXXX0 with %i0.0: add %o3.0, %i0, #1; deq %i0;\n");

    MeshBuilder builder(ArchParams{}, 2, 2);
    const FabricConfig config = builder.build();
    CycleFabric fabric(config, program,
                       {PipelineShape{true, false, false}, true, true});
    const RunStatus status = fabric.run({100'000});
    // Only PE 0 halts; the ring then starves and the fabric goes
    // quiescent.
    EXPECT_EQ(status, RunStatus::Quiescent);
    EXPECT_TRUE(fabric.pe(0).halted());
    EXPECT_GE(fabric.pe(0).counters().retired, 10u);
}

} // namespace
} // namespace tia
