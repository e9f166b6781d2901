/**
 * @file
 * Quickstart: write a triggered-instruction program, assemble it, run
 * it on the functional simulator and on a pipelined microarchitecture,
 * and read back results and performance counters.
 *
 * The program computes the sum 1 + 2 + ... + 100 on one PE and stores
 * it to memory through a write port. Exits non-zero unless both
 * simulators store the expected sum.
 */

#include <cstdio>

#include "core/assembler.hh"
#include "sim/functional.hh"
#include "uarch/cycle_fabric.hh"

int
main()
{
    using namespace tia;

    // 1. Write the program. Triggers are guards over predicate state;
    //    `set %p = ...` updates predicates at issue; priority is
    //    textual order.
    const char *source =
        "// accumulate r1 += r0 while r0 <= 100\n"
        ".def LIMIT 100\n"
        "when %p == XXXXX000: add %r0, %r0, #1; set %p = ZZZZZZ01;\n"
        "when %p == XXXXXX01: add %r1, %r1, %r0; set %p = ZZZZZZ10;\n"
        "when %p == XXXXXX10: uge %p2, %r0, LIMIT; set %p = ZZZZZZ00;\n"
        "when %p == XXXX0100: mov %o1.0, #0; set %p = ZZZZ1100;\n"
        "when %p == XXXX1100: mov %o2.0, %r1; set %p = ZZZ11100;\n"
        "when %p == XXX11100: halt;\n";

    // 2. Assemble against the paper's default parameters (Table 1).
    const Program program = assemble(source);
    std::printf("Assembled %u instructions for %u PE(s)\n",
                program.staticInstructions(), program.numPes());

    // 3. Describe the fabric: one PE with a memory write port bound to
    //    output queues 1 (addresses) and 2 (data).
    FabricBuilder builder(program.params, 1);
    builder.addWritePort(0, 1, 2);
    const FabricConfig config = builder.build();

    // 4. Run functionally (the golden reference).
    const Word expected = 100u * 101u / 2u;
    FunctionalFabric golden(config, program);
    golden.run();
    std::printf("Functional result: memory[0] = %u (expected %u)\n",
                golden.memory().read(0), expected);

    // 5. Run cycle-accurately on a 3-stage pipeline with both hazard
    //    mitigations from the paper enabled.
    const PeConfig uarch{PipelineShape{true, false, true}, // T|DX1|X2
                         /*predictPredicates=*/true,
                         /*effectiveQueueStatus=*/true};
    CycleFabric fabric(config, program, uarch);
    fabric.run();

    const PerfCounters &c = fabric.pe(0).counters();
    std::printf("\n%s: %llu cycles, %llu retired, CPI %.3f\n",
                uarch.name().c_str(),
                static_cast<unsigned long long>(c.cycles),
                static_cast<unsigned long long>(c.retired), c.cpi());
    std::printf("  predicate writes %llu, predictions %llu "
                "(%.1f%% accurate), quashed %llu\n",
                static_cast<unsigned long long>(c.predicateWrites),
                static_cast<unsigned long long>(c.predictions),
                c.predictionAccuracy() * 100.0,
                static_cast<unsigned long long>(c.quashed));
    std::printf("Cycle-accurate result: memory[0] = %u\n",
                fabric.memory().read(0));
    return golden.memory().read(0) == expected &&
                   fabric.memory().read(0) == expected
               ? 0
               : 1;
}
