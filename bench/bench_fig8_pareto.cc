/**
 * @file
 * Figure 8: parametric analysis of the Pareto-optimal designs (VDD,
 * frequency, ns/ins, pJ/ins, power, area, power density, EDP).
 *
 * Paper anchors: the high-performance extreme is a two-stage split-ALU
 * pipeline with queue-status accounting in low-VT at 1157 MHz
 * (1.37 ns/ins at 21.42 pJ/ins); the same microarchitecture in high-VT
 * is also the global energy minimum (0.89 pJ/ins); the single-cycle
 * TDX stays competitive through the low-power region, narrowly
 * dominated by two-stage designs with both optimizations; every Pareto
 * design's power density sits below contemporary CPU/GPU envelopes
 * (max 167.6 mW/mm^2).
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"
#include "vlsi/dse.hh"
#include "workloads/cpi.hh"

int
main()
{
    using namespace tia;
    bench::banner("Figure 8 — Pareto-optimal designs, parametric "
                  "analysis",
                  "best delay 1.37 ns/ins @ 21.42 pJ; global minimum "
                  "0.89 pJ/ins; max density 167.6 mW/mm^2");

    const WorkloadSizes sizes = bench::benchSizes();
    std::printf("Measuring suite-average CPI...\n\n");
    const DesignSpace dse(suiteAverageCpiTable(sizes, allConfigs(), 0));
    const auto points = dse.enumerate();
    const auto frontier = DesignSpace::paretoFrontier(points);
    std::printf("DSE: %zu points -> %zu Pareto designs\n\n",
                points.size(), frontier.size());

    std::printf("%-18s %-8s %-5s %-7s %9s %10s %8s %9s %10s %9s\n",
                "Design", "VT", "VDD", "MHz", "ns/ins", "pJ/ins", "mW",
                "mm^2", "mW/mm^2", "EDP");
    double max_density = 0.0;
    for (const DesignPoint &p : frontier) {
        std::printf("%-18s %-8s %-5.1f %-7.0f %9.3f %10.3f %8.3f %9.4f "
                    "%10.1f %9.2f\n",
                    p.config.name().c_str(), vtName(p.vt), p.vdd,
                    p.freqMhz, p.nsPerInstruction, p.pjPerInstruction,
                    p.powerMw, p.areaUm2 * 1e-6, p.powerDensity(),
                    p.edp());
        max_density = std::max(max_density, p.powerDensity());
    }

    const auto &fastest = frontier.front();
    const auto &thriftiest = frontier.back();
    std::printf("\nHighest throughput: %s (%s, %.1f V) at %.0f MHz — "
                "%.2f ns/ins, %.2f pJ/ins\n",
                fastest.config.name().c_str(), vtName(fastest.vt),
                fastest.vdd, fastest.freqMhz, fastest.nsPerInstruction,
                fastest.pjPerInstruction);
    std::printf("Lowest energy:      %s (%s, %.1f V) at %.0f MHz — "
                "%.2f ns/ins, %.2f pJ/ins\n",
                thriftiest.config.name().c_str(), vtName(thriftiest.vt),
                thriftiest.vdd, thriftiest.freqMhz,
                thriftiest.nsPerInstruction,
                thriftiest.pjPerInstruction);
    std::printf("Max Pareto power density: %.1f mW/mm^2 (paper: 167.6; "
                "65 nm CPUs averaged ~500, GPUs ~300)\n",
                max_density);

    // How many of the Pareto designs are 2-stage pipelines with both
    // optimizations (the paper's headline conclusion)?
    unsigned two_stage_opt = 0;
    for (const DesignPoint &p : frontier) {
        if (p.config.shape.depth() == 2 &&
            (p.config.effectiveQueueStatus || p.config.predictPredicates))
            ++two_stage_opt;
    }
    std::printf("Two-stage optimized designs on the frontier: %u of %zu "
                "(paper: two-stage pipelines with both optimizations "
                "dominate)\n",
                two_stage_opt, frontier.size());
    return 0;
}
