/**
 * @file
 * Domain example: the paper's string_search workload (a DFA scanning a
 * byte stream for "MICRO", Table 3) run across all eight pipeline
 * shapes with and without the hazard mitigations — a miniature of the
 * paper's Figure 5 study on a single branchy workload. Exits non-zero
 * when any run or the functional run fails its golden check.
 */

#include <cstdio>

#include "workloads/runner.hh"

int
main()
{
    using namespace tia;

    const Workload w = makeStringSearch(WorkloadSizes::full());
    std::printf("%s\n%s\n\n", w.name.c_str(), w.description.c_str());

    std::printf("%-18s %8s %6s %8s %8s %8s %9s\n", "Design", "cycles",
                "CPI", "predHaz", "quashed", "forbid", "noTrig");
    for (const PeConfig &config : figure5Configs()) {
        const WorkloadRun run = runCycle(w, config);
        if (!run.ok()) {
            std::printf("%-18s FAILED: %s\n", config.name().c_str(),
                        run.checkError.c_str());
            return 1;
        }
        const PerfCounters &c = run.worker;
        std::printf("%-18s %8llu %6.3f %8llu %8llu %8llu %9llu\n",
                    config.name().c_str(),
                    static_cast<unsigned long long>(c.cycles), c.cpi(),
                    static_cast<unsigned long long>(c.predicateHazard),
                    static_cast<unsigned long long>(c.quashed),
                    static_cast<unsigned long long>(c.forbidden),
                    static_cast<unsigned long long>(c.noTrigger));
    }

    // Show the DFA reacting: report how many matches the run found.
    const WorkloadRun golden = runFunctional(w);
    std::printf("\nWorker retired %llu instructions; run %s.\n",
                static_cast<unsigned long long>(golden.worker.retired),
                golden.ok() ? "validated against the golden DFA"
                            : "FAILED validation");
    return golden.ok() ? 0 : 1;
}
