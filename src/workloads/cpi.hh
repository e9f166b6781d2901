/**
 * @file
 * CPI measurement feeding the VLSI design-space exploration.
 *
 * The paper extracts gate-level activity (and the resulting per-design
 * performance) from runs of the bst program, "the most balanced
 * combination of I/O channel use, computation and memory access delay"
 * among the single-PE workloads (Section 3). measureCpiTable()
 * likewise runs bst on each microarchitecture; suiteAverageCpiTable()
 * averages the whole Table 3 suite for sensitivity studies. Both
 * reduce their matrix with cpiTableOf(), which tia-sweep also applies
 * to the matrix it has already run.
 */

#ifndef TIA_WORKLOADS_CPI_HH
#define TIA_WORKLOADS_CPI_HH

#include "vlsi/dse.hh"
#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace tia {

/**
 * The DSE's CPI table from a finished matrix of @p workloads x
 * @p configs: each config's worker-PE CPI on bst, or, when
 * @p suiteAverage, its mean over every workload. A failed cell that
 * feeds the table is a FatalError.
 */
CpiTable cpiTableOf(const CycleMatrix &matrix,
                    const std::vector<Workload> &workloads,
                    const std::vector<PeConfig> &configs,
                    bool suiteAverage);

/**
 * Worker-PE CPI of bst on each of @p configs.
 * @param jobs sweep worker threads (0 = hardware concurrency,
 *             1 = serial); any value yields identical tables.
 */
CpiTable measureCpiTable(const WorkloadSizes &sizes,
                         const std::vector<PeConfig> &configs =
                             allConfigs(),
                         unsigned jobs = 1);

/** Worker-PE CPI averaged over the full suite (ablation support). */
CpiTable suiteAverageCpiTable(const WorkloadSizes &sizes,
                              const std::vector<PeConfig> &configs =
                                  allConfigs(),
                              unsigned jobs = 1);

} // namespace tia

#endif // TIA_WORKLOADS_CPI_HH
