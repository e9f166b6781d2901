/**
 * @file
 * A 2x2 mesh array (the paper's FPGA-prototype topology) computing a
 * prefix-sum pipeline: a stream of values enters at the north-west
 * corner and flows east then south, each PE adding its own
 * contribution, with the running results stored from the south-east
 * corner.
 *
 *   (0,0) fetch+fwd --E--> (0,1) +10
 *                             |S
 *   (1,0) store  <--W--   (1,1) +counter
 *
 * Demonstrates: MeshBuilder wiring, edge memory ports, and per-PE
 * counter readout across the whole array. Exits non-zero unless every
 * microarchitecture halts with the expected memory image.
 */

#include <cstdio>

#include "core/assembler.hh"
#include "sim/mesh.hh"
#include "uarch/cycle_fabric.hh"

namespace {

constexpr unsigned kCount = 256;
constexpr tia::Word kInBase = 16;
constexpr tia::Word kOutBase = 2048;

} // namespace

int
main()
{
    using namespace tia;

    // Port convention: 0 = N, 1 = E, 2 = S, 3 = W for both inputs and
    // outputs.
    const char *source =
        // (0,0): decoupled streamer fetching kCount words through the
        // north edge read port, forwarding east; the final request is
        // tagged so the stream ends itself.
        ".pe 0\n"
        ".def SBASE 16\n"
        "when %p == XXXXXXXX with %i0.0: mov %o1.0, %i0; deq %i0;\n"
        "when %p == XX0XXXX0 with %i0.1: mov %o1.0, %i0; deq %i0; "
        "set %p = ZZ1ZZZZZ;\n"
        "when %p == XX1XXXXX: mov %o1.1, #0; set %p = ZZ0ZZZZ1;\n"
        "when %p == XXXXXXX1: halt;\n"
        "when %p == XXXXX00X: ult %p4, %r0, %r1; set %p = ZZZZZ01Z;\n"
        "when %p == XXX1X01X: add %o0.0, %r0, SBASE; set %p = ZZZZZ10Z;\n"
        "when %p == XXXXX10X: add %r0, %r0, #1; set %p = ZZZZZ00Z;\n"
        "when %p == XXX0X01X: add %o0.1, %r0, SBASE; set %p = ZZZZZ11Z;\n"
        // (0,1): add a constant bias, send south.
        ".pe 1\n"
        "when %p == XXXXXXX0 with %i3.0: add %o2.0, %i3, #10; deq %i3;\n"
        "when %p == XXXXXXX0 with %i3.1: mov %o2.1, #0; deq %i3; "
        "set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: halt;\n"
        // (1,1): add a running counter, send west.
        ".pe 3\n"
        "when %p == XXXXXX00 with %i0.0: add %o3.0, %i0, %r0; deq %i0; "
        "set %p = ZZZZZZ01;\n"
        "when %p == XXXXXX01: add %r0, %r0, #1; set %p = ZZZZZZ00;\n"
        "when %p == XXXXXX00 with %i0.1: mov %o3.1, #0; deq %i0; "
        "set %p = ZZZZZZ1X;\n"
        "when %p == XXXXXX1X: halt;\n"
        // (1,0): store the stream through the south edge write port.
        ".pe 2\n"
        ".def OBASE 2048\n"
        "when %p == XXXXX000 with %i1.0: add %o2.0, %r0, OBASE; "
        "set %p = ZZZZZ001;\n"
        "when %p == XXXXX001: mov %o3.0, %i1; deq %i1; "
        "set %p = ZZZZZ011;\n"
        "when %p == XXXXX011: add %r0, %r0, #1; set %p = ZZZZZ000;\n"
        "when %p == XXXXX000 with %i1.1: halt;\n";

    int exit_code = 0;
    const Program program = assemble(source);

    MeshBuilder builder(ArchParams{}, 2, 2);
    builder.addEdgeReadPort(0, 0, kNorth); // (0,0) north edge: fetch
    // (1,0) write port on its two free edge-facing outputs:
    // addresses leave south, data leaves west.
    builder.addEdgeWritePort(1, 0, kSouth, kWest);
    // Streamer protocol: r0 = next index, r1 = count - 1.
    builder.setInitialRegs(builder.pe(0, 0), {0, kCount - 1});
    const FabricConfig config = builder.build();

    auto preload = [](Memory &memory) {
        for (unsigned i = 0; i < kCount; ++i)
            memory.write(kInBase + i, i * 3);
    };

    std::printf("2x2 mesh prefix pipeline over %u values\n\n", kCount);
    std::printf("%-16s %8s %8s %6s   per-PE retired\n", "uarch", "cycles",
                "status", "ok");
    for (const PeConfig &uarch :
         {PeConfig{PipelineShape{false, false, false}, false, false},
          PeConfig{PipelineShape{true, false, false}, true, true},
          PeConfig{PipelineShape{true, true, true}, true, true, true}}) {
        CycleFabric fabric(config, program, uarch);
        preload(fabric.memory());
        const RunStatus status = fabric.run();

        bool ok = true;
        for (unsigned i = 0; i < kCount; ++i) {
            const Word expected = i * 3 + 10 + i;
            if (fabric.memory().read(kOutBase + i) != expected)
                ok = false;
        }
        std::printf("%-16s %8llu %8s %6s  ",
                    uarch.name().c_str(),
                    static_cast<unsigned long long>(fabric.now()),
                    status == RunStatus::Halted ? "halted" : "stuck",
                    ok ? "yes" : "NO");
        if (!ok || status != RunStatus::Halted)
            exit_code = 1;
        for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
            std::printf(" PE%u=%llu", pe,
                        static_cast<unsigned long long>(
                            fabric.pe(pe).counters().retired));
        }
        std::printf("\n");
    }
    return exit_code;
}
