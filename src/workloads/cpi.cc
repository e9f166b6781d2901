#include "workloads/cpi.hh"

#include "core/logging.hh"
#include "workloads/runner.hh"

namespace tia {

CpiTable
cpiTableOf(const CycleMatrix &matrix, const std::vector<Workload> &workloads,
           const std::vector<PeConfig> &configs, bool suiteAverage)
{
    // The paper's methodology: bst alone drives the DSE.
    std::size_t first = 0;
    std::size_t last = workloads.size();
    if (!suiteAverage) {
        while (first < last && workloads[first].name != "bst")
            ++first;
        fatalIf(first == last, "workload set has no bst workload");
        last = first + 1;
    }
    CpiTable table;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        double sum = 0.0;
        for (std::size_t w = first; w < last; ++w) {
            const WorkloadRun &run = matrix.run(c, w);
            fatalIf(!run.ok(), workloads[w].name, " failed on ",
                    configs[c].name(), ": ", run.checkError);
            sum += run.worker.cpi();
        }
        table[configs[c].name()] = sum / static_cast<double>(last - first);
    }
    return table;
}

CpiTable
measureCpiTable(const WorkloadSizes &sizes,
                const std::vector<PeConfig> &configs, unsigned jobs)
{
    const std::vector<Workload> bst = {makeBst(sizes)};
    return cpiTableOf(runCycleMatrix(bst, configs, {}, jobs), bst,
                      configs, false);
}

CpiTable
suiteAverageCpiTable(const WorkloadSizes &sizes,
                     const std::vector<PeConfig> &configs, unsigned jobs)
{
    const auto suite = allWorkloads(sizes);
    return cpiTableOf(runCycleMatrix(suite, configs, {}, jobs), suite,
                      configs, true);
}

} // namespace tia
