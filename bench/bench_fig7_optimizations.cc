/**
 * @file
 * Figure 7: the benefit of predicate prediction (+P) and effective
 * queue status (+Q) on the balanced region of the energy-delay Pareto
 * frontier (paper: +P+Q improves the frontier by 20-25% in both energy
 * and delay near the origin). Also prints, per workload and shape,
 * whether each knob changed any decision at all (KnobWitness).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "vlsi/dse.hh"
#include "workloads/cpi.hh"
#include "workloads/runner.hh"

namespace {

using namespace tia;

/** Frontier restricted to one optimization setting. */
std::vector<DesignPoint>
frontierFor(const DesignSpace &dse, bool p, bool q)
{
    std::vector<PeConfig> configs;
    for (const auto &shape : allShapes())
        configs.push_back({shape, p, q});
    return DesignSpace::paretoFrontier(dse.enumerate(configs));
}

/** Interpolated frontier energy at a given delay (nan if outside). */
double
energyAtDelay(const std::vector<DesignPoint> &frontier, double ns)
{
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        const auto &a = frontier[i - 1];
        const auto &b = frontier[i];
        if (a.nsPerInstruction <= ns && ns <= b.nsPerInstruction) {
            const double t = (ns - a.nsPerInstruction) /
                             (b.nsPerInstruction - a.nsPerInstruction);
            return a.pjPerInstruction +
                   t * (b.pjPerInstruction - a.pjPerInstruction);
        }
    }
    return -1.0;
}

/**
 * Where +P and +Q changed a decision, read off the KnobWitness of each
 * (workload, shape) run without the knob: "P" where the base run
 * issued a predicate writer into a pipeline (+P acts), "Q" where the
 * base run's effective queue view would have resolved differently
 * (+Q acts), "q" where the +P run's would (+Q acts on top of +P); "."
 * marks a knob proven inert, so that run is also the run with it on.
 */
void
printKnobWitnesses(const WorkloadSizes &sizes)
{
    std::printf("\nWhere +P and +Q change a decision (P/Q: on the base "
                "run, q: +Q on the +P run, .: inert):\n  %-14s",
                "workload");
    for (const PipelineShape &shape : allShapes())
        std::printf(" %-10s", shape.name().c_str());
    std::printf("\n");
    const std::size_t shapes = allShapes().size();
    std::size_t runs = 0, pInert = 0, qInert = 0, qInertOnP = 0;
    for (const Workload &workload : allWorkloads(sizes)) {
        std::printf("  %-14s", workload.name.c_str());
        std::size_t qInertHere = 0;
        for (const PipelineShape &shape : allShapes()) {
            const CycleExecution base =
                executeCycle(workload, {shape, false, false}, {});
            const CycleExecution plusP =
                executeCycle(workload, {shape, true, false}, {});
            if (base.status != RunStatus::Halted ||
                plusP.status != RunStatus::Halted) {
                std::printf(" %-10s", "(no halt)");
                continue;
            }
            const KnobWitness acted = base.fabric->knobWitness();
            const KnobWitness actedOnP = plusP.fabric->knobWitness();
            const std::string mark =
                std::string(acted.predictPredicates ? "P" : ".") +
                (acted.effectiveQueueStatus ? "Q" : ".") +
                (actedOnP.effectiveQueueStatus ? "q" : ".");
            std::printf(" %-10s", mark.c_str());
            ++runs;
            pInert += acted.predictPredicates ? 0 : 1;
            qInert += acted.effectiveQueueStatus ? 0 : 1;
            qInertOnP += actedOnP.effectiveQueueStatus ? 0 : 1;
            qInertHere += acted.effectiveQueueStatus ? 0 : 1;
        }
        std::printf("%s\n", qInertHere == shapes ? "  (+Q inert on every "
                                                   "shape)"
                                                 : "");
    }
    std::printf("+P changed no decision in %zu of %zu (workload, shape) "
                "cells, +Q in %zu (base runs) and %zu (+P runs)\n",
                pInert, runs, qInert, qInertOnP);
}

} // namespace

int
main()
{
    using namespace tia;
    bench::banner("Figure 7 — frontier benefit of +P and +Q (balanced "
                  "region)",
                  "+P+Q improves the Pareto frontier 20-25% in energy "
                  "and delay near the origin");

    const WorkloadSizes sizes = bench::benchSizes();
    printKnobWitnesses(sizes);
    std::printf("\nMeasuring suite-average CPI...\n");
    const DesignSpace dse(suiteAverageCpiTable(sizes));

    struct Variant
    {
        const char *label;
        bool p;
        bool q;
    };
    const Variant variants[] = {
        {"None", false, false},
        {"+P", true, false},
        {"+Q", false, true},
        {"+P+Q", true, true},
    };

    std::vector<std::vector<DesignPoint>> frontiers;
    for (const Variant &v : variants) {
        frontiers.push_back(frontierFor(dse, v.p, v.q));
        std::printf("\n%s frontier (balanced region, <= 10 ns/ins):\n",
                    v.label);
        std::printf("  %-18s %-8s %-7s %-9s %10s %11s\n", "design", "VT",
                    "VDD", "f (MHz)", "ns/ins", "pJ/ins");
        for (const DesignPoint &p : frontiers.back()) {
            if (p.nsPerInstruction > 10.0)
                continue;
            std::printf("  %-18s %-8s %-7.1f %-9.0f %10.3f %11.3f\n",
                        p.config.name().c_str(), vtName(p.vt), p.vdd,
                        p.freqMhz, p.nsPerInstruction,
                        p.pjPerInstruction);
        }
    }

    // Iso-delay energy improvement of +P+Q over None across the
    // balanced region.
    std::printf("\nIso-delay energy improvement of +P+Q over the "
                "unoptimized frontier:\n");
    double improvement_sum = 0.0;
    unsigned improvement_count = 0;
    for (double ns = 2.0; ns <= 8.0; ns += 1.0) {
        const double base = energyAtDelay(frontiers[0], ns);
        const double best = energyAtDelay(frontiers[3], ns);
        if (base > 0.0 && best > 0.0) {
            const double gain = (1.0 - best / base) * 100.0;
            improvement_sum += gain;
            ++improvement_count;
            std::printf("  at %4.1f ns/ins: %6.2f pJ -> %6.2f pJ "
                        "(%.0f%% better)\n",
                        ns, base, best, gain);
        }
    }
    if (improvement_count > 0) {
        std::printf("Average iso-delay energy gain: %.0f%% "
                    "(paper: 20-25%%)\n",
                    improvement_sum / improvement_count);
    }

    // Delay improvement at the fast end.
    const double base_fastest = frontiers[0].front().nsPerInstruction;
    const double best_fastest = frontiers[3].front().nsPerInstruction;
    std::printf("Fastest point: %.3f ns (None) vs %.3f ns (+P+Q): "
                "%.0f%% better\n",
                base_fastest, best_fastest,
                (1.0 - best_fastest / base_fastest) * 100.0);
    return 0;
}
