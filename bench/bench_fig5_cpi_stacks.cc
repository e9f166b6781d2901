/**
 * @file
 * Figure 5: CPI stacks of the seven pipelines (plus the single-cycle
 * TDX) with predicate prediction (+P) and effective queue status (+Q)
 * selectively enabled, averaged over the ten workloads.
 *
 * Paper shape anchors: predicate hazards grow with depth and are the
 * same for all pipelines of a given depth; +P removes them almost
 * entirely while adding a few quashed and (deeper pipes) forbidden
 * cycles; +Q drops the no-trigger component toward the single-cycle
 * constant; together the optimizations cut 4-stage CPI by ~35%.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/runner.hh"

int
main()
{
    using namespace tia;
    bench::banner("Figure 5 — CPI stacks (average over the ten "
                  "workloads)",
                  "predicate hazards +0.18/+0.24/+0.27 CPI at depth "
                  "2/3/4; +P+Q cuts 4-stage CPI ~35%");

    const WorkloadSizes sizes = bench::benchSizes();
    const auto suite = allWorkloads(sizes);
    const auto configs = figure5Configs();

    // The whole uarch x workload product runs on the streaming sweep
    // pipeline; the per-config CPI stacks accumulate in the in-order
    // sink while later cells simulate. The matrix is bit-identical
    // for any jobs count (and for any TIA_BENCH_CACHE state).
    bench::BenchCache cache;
    std::vector<CpiStack> stacks(configs.size());
    bool failed = false;
    const CycleMatrix matrix = runCycleMatrix(
        suite, configs, cache.options(), bench::benchJobs(),
        [&](std::size_t c, std::size_t w, const WorkloadRun &run) {
            if (!run.ok()) {
                std::printf("%s FAILED on %s: %s\n",
                            suite[w].name.c_str(),
                            configs[c].name().c_str(),
                            run.checkError.c_str());
                failed = true;
                return;
            }
            stacks[c] += cpiStack(run.worker);
        });
    if (failed)
        return 1;
    std::printf("%zu runs on %u worker thread(s) in %.1f ms\n\n",
                matrix.runs.size(), matrix.jobs, matrix.wallMs);

    std::printf("%-18s %-6s %-8s %-8s %-9s %-8s %-9s %-9s\n", "Design",
                "CPI", "Retired", "Quashed", "PredHaz", "DataHaz",
                "Forbidden", "NoTrig");

    double base_depth4 = 0.0;
    double opt_depth4 = 0.0;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const PeConfig &config = configs[c];
        CpiStack avg = stacks[c];
        avg /= static_cast<double>(suite.size());
        std::printf("%-18s %-6s %-8.3f %-8.3f %-9.3f %-8.3f %-9.3f "
                    "%-9.3f\n",
                    config.name().c_str(),
                    formatCpi(avg.total()).c_str(), avg.retired,
                    avg.quashed, avg.predicateHazard, avg.dataHazard,
                    avg.forbidden, avg.noTrigger);
        if (config.shape.depth() == 4) {
            if (!config.predictPredicates && !config.effectiveQueueStatus)
                base_depth4 = avg.total();
            if (config.predictPredicates && config.effectiveQueueStatus)
                opt_depth4 = avg.total();
        }
    }
    if (base_depth4 > 0.0) {
        std::printf("\n4-stage CPI reduction from +P+Q: %.1f%% "
                    "(paper: ~35%%)\n",
                    (1.0 - opt_depth4 / base_depth4) * 100.0);
    }
    return 0;
}
