/**
 * @file
 * A spatial processing chain built from scratch: three PEs compute a
 * running "sum of squares of deltas" over a memory-resident signal —
 * PE 0 streams samples, PE 1 differentiates consecutive samples,
 * PE 2 squares and accumulates, storing the result back to memory.
 *
 * Demonstrates: multi-PE assembly, tag-based end-of-stream protocol,
 * custom fabric wiring with read and write ports, and comparing
 * microarchitectures on a user workload. Exits non-zero unless every
 * microarchitecture halts with the golden sum.
 */

#include <cstdio>

#include "core/assembler.hh"
#include "uarch/cycle_fabric.hh"

namespace {

constexpr tia::Word kSignalBase = 16;
constexpr unsigned kSamples = 512;

} // namespace

int
main()
{
    using namespace tia;

    const char *source =
        // PE 0: decoupled streamer (request/respond; final request
        // carries tag 1 which the read port echoes).
        ".pe 0\n"
        ".def SBASE 16\n"
        "when %p == XXXXXXXX with %i0.0: mov %o3.0, %i0; deq %i0;\n"
        "when %p == XX0XXXX0 with %i0.1: mov %o3.0, %i0; deq %i0; "
        "set %p = ZZ1ZZZZZ;\n"
        "when %p == XX1XXXXX: mov %o3.1, #0; set %p = ZZ0ZZZZ1;\n"
        "when %p == XXXXXXX1: halt;\n"
        "when %p == XXXXX00X: ult %p4, %r0, %r1; set %p = ZZZZZ01Z;\n"
        "when %p == XXX1X01X: add %o0.0, %r0, SBASE; set %p = ZZZZZ10Z;\n"
        "when %p == XXXXX10X: add %r0, %r0, #1; set %p = ZZZZZ00Z;\n"
        "when %p == XXX0X01X: add %o0.1, %r0, SBASE; set %p = ZZZZZ11Z;\n"
        // PE 1: delta = sample - previous (r0 holds the previous).
        ".pe 1\n"
        "when %p == XXXXXXX0 with %i0.0: sub %o0.0, %i0, %r0; "
        "set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: mov %r0, %i0; deq %i0; set %p = ZZZZZZZ0;\n"
        "when %p == XXXXXXX0 with %i0.1: mov %o0.1, #0; deq %i0; "
        "set %p = ZZZZZZ1X;\n"
        "when %p == XXXXXX1X: halt;\n"
        // PE 2: accumulate delta^2; on end-of-stream store and halt.
        ".pe 2\n"
        "when %p == XXXXXX00 with %i0.0: mul %r1, %i0, %i0; deq %i0; "
        "set %p = ZZZZZZ01;\n"
        "when %p == XXXXXX01: add %r0, %r0, %r1; set %p = ZZZZZZ00;\n"
        "when %p == XXXXXX00 with %i0.1: mov %o1.0, #0; deq %i0; "
        "set %p = ZZZZZZ10;\n"
        "when %p == XXXXXX10: mov %o2.0, %r0; set %p = ZZZZZZ11;\n"
        "when %p == XXXXXX11: halt;\n";

    const Program program = assemble(source);

    FabricBuilder builder(program.params, 3);
    builder.addReadPort(0, 0, 0);  // PE 0: %o0 = addresses, %i0 = data
    builder.connect(0, 3, 1, 0);   // samples -> differentiator
    builder.connect(1, 0, 2, 0);   // deltas -> accumulator
    builder.addWritePort(2, 1, 2); // PE 2: %o1 = address, %o2 = data
    builder.setInitialRegs(0, {0, kSamples - 1});
    const FabricConfig config = builder.build();

    // A bumpy synthetic signal.
    auto preload = [](Memory &memory) {
        Word x = 1000;
        for (unsigned i = 0; i < kSamples; ++i) {
            x += (i * 37 % 13) - 6;
            memory.write(kSignalBase + i, x);
        }
    };

    // Golden value.
    Word expected = 0;
    {
        Word x = 1000, prev = 0;
        for (unsigned i = 0; i < kSamples; ++i) {
            x += (i * 37 % 13) - 6;
            const Word delta = x - prev;
            expected += delta * delta;
            prev = x;
        }
    }

    std::printf("Sum of squared deltas over %u samples; expected %u\n\n",
                kSamples, expected);
    int exit_code = 0;
    std::printf("%-18s %8s %8s %6s  %s\n", "Microarchitecture", "cycles",
                "retired", "CPI", "result");

    for (const PeConfig &uarch :
         {PeConfig{PipelineShape{false, false, false}, false, false},
          PeConfig{PipelineShape{true, false, false}, false, false},
          PeConfig{PipelineShape{true, false, false}, true, true},
          PeConfig{PipelineShape{true, true, true}, true, true}}) {
        CycleFabric fabric(config, program, uarch);
        preload(fabric.memory());
        const RunStatus status = fabric.run();
        const PerfCounters &c = fabric.pe(2).counters();
        const Word result = fabric.memory().read(0);
        std::printf("%-18s %8llu %8llu %6.3f  %u%s%s\n",
                    uarch.name().c_str(),
                    static_cast<unsigned long long>(c.cycles),
                    static_cast<unsigned long long>(c.retired), c.cpi(),
                    result, result == expected ? " (ok)" : " (WRONG)",
                    status == RunStatus::Halted ? "" : " [did not halt]");
        if (result != expected || status != RunStatus::Halted)
            exit_code = 1;
    }
    return exit_code;
}
