/**
 * @file
 * Figure 4: datapath predicate write frequency and prediction accuracy
 * per benchmark (dynamic write rate averages ~20%; accuracy ~50% for
 * the data-dependent filter/merge, near-perfect for loop-dominated
 * gcd/stream/mean; dot product's worker writes no predicates at all).
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/runner.hh"

int
main()
{
    using namespace tia;
    bench::banner("Figure 4 — predicate write frequency & prediction "
                  "accuracy",
                  "worker-PE rates under +P on the T|D|X pipeline");

    const WorkloadSizes sizes = bench::benchSizes();
    // Accuracy is measured with the speculative predicate unit enabled
    // on a pipelined design (predictions only exist when a pipeline
    // gives them a window).
    const PeConfig config{PipelineShape{true, true, false}, true, true};

    std::printf("%-14s %-18s %-18s %-12s %-14s\n", "Benchmark",
                "PredWriteFreq", "PredictAccuracy", "Predictions",
                "Mispredicts");

    const auto suite = allWorkloads(sizes);
    const CycleMatrix matrix = runCycleMatrix(suite, {config}, {}, 0);
    double freq_sum = 0.0;
    double acc_sum = 0.0;
    unsigned acc_count = 0;
    for (std::size_t w = 0; w < suite.size(); ++w) {
        const WorkloadRun &run = matrix.run(0, w);
        if (!run.ok()) {
            std::printf("%s FAILED: %s\n", suite[w].name.c_str(),
                        run.checkError.c_str());
            return 1;
        }
        const double freq = run.worker.predicateWriteRate();
        freq_sum += freq;
        if (run.worker.predictions > 0) {
            acc_sum += run.worker.predictionAccuracy();
            ++acc_count;
        }
        std::printf("%-14s %-18.1f %-18.1f %-12llu %-14llu\n",
                    suite[w].name.c_str(), freq * 100.0,
                    run.worker.predictions > 0
                        ? run.worker.predictionAccuracy() * 100.0
                        : 0.0,
                    static_cast<unsigned long long>(
                        run.worker.predictions),
                    static_cast<unsigned long long>(
                        run.worker.mispredictions));
    }
    std::printf("%-14s %-18.1f %-18.1f\n", "average", freq_sum * 10.0,
                acc_count ? acc_sum / acc_count * 100.0 : 0.0);
    std::printf("\nPaper: average write rate ~20%% (\"almost exactly the "
                "rate of dynamic branches in SPEC\"); filter/merge "
                "~50%% accuracy; gcd/stream/mean near-perfect; dot "
                "product makes no predictions.\n");
    return 0;
}
