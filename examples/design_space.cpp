/**
 * @file
 * Design-space exploration example: pick the best PE microarchitecture
 * and operating point under a power-density budget — the kind of
 * question the paper's Section 5.4 "Power Density" discussion poses
 * for architects of massively replicated spatial fabrics.
 *
 * Every CPI run is checked against its golden model (a failing run
 * aborts the table); the example exits non-zero when no design point
 * fits the budget.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "vlsi/dse.hh"
#include "workloads/cpi.hh"

int
main(int argc, char **argv)
{
    using namespace tia;

    // Power-density budget in mW/mm^2 (default: the 65 nm GPU-class
    // ceiling of ~300 the paper cites; pass another value as argv[1]).
    double budget = 300.0;
    if (argc > 1)
        budget = std::atof(argv[1]);

    std::printf("Measuring suite-average CPI on all 32 "
                "microarchitectures (cycle-accurate runs)...\n");
    const DesignSpace dse(suiteAverageCpiTable(WorkloadSizes::small()));

    std::vector<DesignPoint> admissible;
    for (const DesignPoint &p : dse.enumerate()) {
        if (p.powerDensity() <= budget)
            admissible.push_back(p);
    }
    std::printf("%zu of %zu timing-closed design points fit under "
                "%.0f mW/mm^2\n\n",
                admissible.size(), dse.enumerate().size(), budget);

    const auto frontier = DesignSpace::paretoFrontier(admissible);
    if (frontier.empty()) {
        std::printf("No design point fits the budget.\n");
        return 1;
    }

    // Fastest admissible, most efficient, and best EDP.
    const DesignPoint *fastest = &frontier.front();
    const DesignPoint *thriftiest = &frontier.back();
    const DesignPoint *best_edp = &frontier.front();
    for (const DesignPoint &p : frontier) {
        if (p.edp() < best_edp->edp())
            best_edp = &p;
    }

    auto show = [](const char *label, const DesignPoint &p) {
        std::printf("%-22s %-18s %-8s %.1f V %5.0f MHz  %7.3f ns/ins  "
                    "%8.3f pJ/ins  %6.1f mW/mm^2\n",
                    label, p.config.name().c_str(), vtName(p.vt), p.vdd,
                    p.freqMhz, p.nsPerInstruction, p.pjPerInstruction,
                    p.powerDensity());
    };
    show("Fastest:", *fastest);
    show("Most efficient:", *thriftiest);
    show("Best energy-delay:", *best_edp);

    std::printf("\nFull admissible Pareto frontier (%zu points):\n",
                frontier.size());
    for (const DesignPoint &p : frontier) {
        std::printf("  %-18s %-8s %.1f V %5.0f MHz  %8.3f ns  %8.3f pJ\n",
                    p.config.name().c_str(), vtName(p.vt), p.vdd,
                    p.freqMhz, p.nsPerInstruction, p.pjPerInstruction);
    }
    return 0;
}
