/**
 * @file
 * Table 3 + Section 3: the ten microbenchmarks, their structure, and
 * the dynamic instruction / cycle counts the paper quotes (dot product
 * 20,003 instructions; gcd 411,540; bst 90,000-160,000 cycles across
 * microarchitectures; everything under ~700,000 cycles).
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/runner.hh"

int
main()
{
    using namespace tia;
    bench::banner("Table 3 — benchmark suite",
                  "dynamic counts: dot=20,003 ins, gcd=411,540 ins, "
                  "bst 90k-160k cycles, max ~700k cycles");

    const auto suite = allWorkloads(bench::benchSizes());
    std::printf("%-14s %-4s %-7s %-12s %-12s %-10s %s\n", "Benchmark",
                "PEs", "Worker", "Worker ins", "Total ins", "Validated",
                "Description");

    for (const Workload &w : suite) {
        const WorkloadRun run = runFunctional(w);
        std::uint64_t total = 0;
        for (auto n : run.dynamicInstructions)
            total += n;
        std::printf("%-14s %-4u %-7u %-12llu %-12llu %-10s %s\n",
                    w.name.c_str(), w.config.numPes, w.workerPe,
                    static_cast<unsigned long long>(run.worker.retired),
                    static_cast<unsigned long long>(total),
                    run.ok() ? "yes" : "NO", w.description.c_str());
    }

    // Cycle ranges across all 32 microarchitectures for bst (the
    // paper's 90k-160k window) and the suite-wide maximum. The whole
    // uarch x workload product runs on the sweep pipeline.
    std::printf("\nCycle ranges over the 32 microarchitectures:\n");
    std::printf("%-14s %-12s %-12s\n", "Benchmark", "Min cycles",
                "Max cycles");
    const auto configs = allConfigs();
    const CycleMatrix matrix = runCycleMatrix(suite, configs, {}, 0);
    for (std::size_t w = 0; w < suite.size(); ++w) {
        Cycle min_cycles = ~Cycle{0};
        Cycle max_cycles = 0;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const WorkloadRun &run = matrix.run(c, w);
            if (!run.ok()) {
                std::printf("%-14s FAILED on %s: %s\n",
                            suite[w].name.c_str(),
                            configs[c].name().c_str(),
                            run.checkError.c_str());
                return 1;
            }
            min_cycles = std::min(min_cycles, run.worker.cycles);
            max_cycles = std::max(max_cycles, run.worker.cycles);
        }
        std::printf("%-14s %-12llu %-12llu\n", suite[w].name.c_str(),
                    static_cast<unsigned long long>(min_cycles),
                    static_cast<unsigned long long>(max_cycles));
    }
    return 0;
}
