/**
 * @file
 * Derived cells: runCycleMatrix derives a cell from a sibling's run
 * when that run's KnobWitness proves +P or +Q changed no decision
 * (docs/perf.md, "Derived cells"). The matrix must still equal a
 * per-cell runCycle field for field, for every config list, jobs count
 * and cache mode; and the witness bits must be set exactly where the
 * knobs act.
 */

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/simcache.hh"
#include "core/assembler.hh"
#include "sim/fault.hh"
#include "workloads/runner.hh"

namespace tia {
namespace {

/** A shuffled list with duplicate and +N configs. */
std::vector<PeConfig>
shuffledConfigs()
{
    std::vector<PeConfig> configs = allConfigs();
    for (const PipelineShape &shape : allShapes()) {
        configs.push_back({shape, true, false, true}); // +P+N
        configs.push_back({shape, true, true, true});  // +P+N+Q
    }
    configs.push_back(configs[5]);
    configs.push_back(configs[30]);
    configs.push_back(configs[36]);
    std::mt19937 rng(7);
    std::shuffle(configs.begin(), configs.end(), rng);
    return configs;
}

/** Each cell of @p configs x @p suite through a plain runCycle. */
std::map<std::string, std::vector<WorkloadRun>>
perCellRuns(const std::vector<Workload> &suite,
            const std::vector<PeConfig> &configs,
            const CycleRunOptions &options = {})
{
    std::map<std::string, std::vector<WorkloadRun>> runs;
    for (const PeConfig &config : configs) {
        std::vector<WorkloadRun> &row = runs[config.name()];
        if (!row.empty())
            continue;
        for (const Workload &workload : suite)
            row.push_back(runCycle(workload, config, options));
    }
    return runs;
}

void
expectMatches(const CycleMatrix &matrix, const std::vector<PeConfig> &configs,
              const std::vector<Workload> &suite,
              const std::map<std::string, std::vector<WorkloadRun>> &expected,
              const std::string &what)
{
    ASSERT_EQ(matrix.runs.size(), configs.size() * suite.size()) << what;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::size_t w = 0; w < suite.size(); ++w) {
            EXPECT_TRUE(matrix.run(c, w) ==
                        expected.at(configs[c].name())[w])
                << what << ": " << configs[c].name() << " x "
                << suite[w].name;
        }
    }
}

TEST(DerivedCells, MatrixEqualsPerCellRunCycle)
{
    const std::vector<Workload> suite = allWorkloads(WorkloadSizes::small());
    const std::vector<std::pair<std::string, std::vector<PeConfig>>> lists =
        {{"all", allConfigs()},
         {"fig5", figure5Configs()},
         {"shuffled", shuffledConfigs()}};
    const auto expected = perCellRuns(suite, shuffledConfigs());

    for (const auto &[name, configs] : lists) {
        const std::size_t cells = configs.size() * suite.size();
        for (const unsigned jobs : {1u, 4u}) {
            const std::string what =
                name + " jobs=" + std::to_string(jobs);

            const CycleMatrix plain =
                runCycleMatrix(suite, configs, {}, jobs);
            expectMatches(plain, configs, suite, expected, what + " plain");
            EXPECT_EQ(plain.simulated + plain.derived, cells) << what;
            EXPECT_GT(plain.derived, 0u) << what;

            SimCache cache;
            CycleRunOptions options;
            options.cache = &cache;
            const CycleMatrix cold =
                runCycleMatrix(suite, configs, options, jobs);
            expectMatches(cold, configs, suite, expected, what + " cold");
            SimCache::Stats stats = cache.stats();
            // A duplicate config's cell hits the cache; uncached, it is
            // derived from its first copy.
            EXPECT_EQ(cold.simulated, plain.simulated) << what;
            EXPECT_EQ(cold.derived + stats.hits, plain.derived) << what;
            EXPECT_EQ(stats.lookups, cells) << what;
            EXPECT_EQ(cold.simulated + cold.derived + stats.hits +
                          stats.coalesced,
                      cells)
                << what;
            EXPECT_EQ(cold.simulated + cold.derived, stats.misses) << what;

            const CycleMatrix warm =
                runCycleMatrix(suite, configs, options, jobs);
            expectMatches(warm, configs, suite, expected, what + " warm");
            EXPECT_EQ(warm.simulated + warm.derived, 0u) << what;
            EXPECT_EQ(cache.stats().hits - stats.hits, cells) << what;

            // Verify-hits re-simulates every hit, deriving nothing: it
            // checks the payloads the cold pass derived.
            cache.setVerifyHits(true);
            stats = cache.stats();
            const CycleMatrix verified =
                runCycleMatrix(suite, configs, options, jobs);
            expectMatches(verified, configs, suite, expected,
                          what + " verify");
            EXPECT_EQ(verified.derived, 0u) << what;
            EXPECT_EQ(cache.stats().verifiedHits - stats.verifiedHits,
                      cells)
                << what;
        }
    }
}

TEST(DerivedCells, TheSweepDerivesItsPinnedShare)
{
    // The witness's reach over the paper sweep (tia-sweep prints "103
    // of 320 cells derived", at full size too). derived > 0 alone would
    // let a witness that sets its bits too eagerly lose cells silently.
    const CycleMatrix matrix = runCycleMatrix(
        allWorkloads(WorkloadSizes::small()), allConfigs(), {}, 4);
    EXPECT_EQ(matrix.derived, 103u);
    EXPECT_EQ(matrix.simulated + matrix.derived, matrix.runs.size());
}

/** A workload running @p source on @p config, with no output check. */
Workload
programWorkload(const std::string &name, const std::string &source,
                const FabricConfig &config)
{
    Workload workload;
    workload.name = name;
    workload.program = assemble(source, config.params);
    workload.config = config;
    workload.check = [](const Memory &) { return std::string(); };
    return workload;
}

PeConfig
configOf(const std::string &name)
{
    const std::optional<PeConfig> config = parseConfigName(name);
    EXPECT_TRUE(config.has_value()) << name;
    return config.value_or(PeConfig{});
}

KnobWitness
witnessOf(const Workload &workload, const PeConfig &config,
          const CycleRunOptions &options = {})
{
    const CycleExecution execution = executeCycle(workload, config, options);
    return execution.fabric->knobWitness();
}

// One datapath predicate write, then a halt that waits for it.
const char *const kPredicateWriter =
    "when %p == XXXXXXX0: eq %p1, %r0, #0; set %p = ZZZZZZZ1;\n"
    "when %p == XXXXXX11: halt;\n";

TEST(DerivedCells, PredictionWitnessNeedsAPipeline)
{
    const Workload workload = programWorkload(
        "predicate_writer", kPredicateWriter,
        FabricBuilder(ArchParams{}, 1).build());

    // The single-cycle TDX never predicts, so +P is inert there...
    EXPECT_FALSE(witnessOf(workload, configOf("TDX")).predictPredicates);
    // ...but a writer issuing into a pipeline is where +P acts.
    EXPECT_TRUE(witnessOf(workload, configOf("T|DX")).predictPredicates);
    // No queue anywhere: +Q never acts.
    EXPECT_FALSE(
        witnessOf(workload, configOf("T|DX")).effectiveQueueStatus);

    const std::vector<PeConfig> configs = {configOf("TDX"),
                                           configOf("TDX +P"),
                                           configOf("T|DX"),
                                           configOf("T|DX +P")};
    const CycleMatrix matrix = runCycleMatrix({workload}, configs);
    EXPECT_EQ(matrix.derived, 1u); // TDX +P, from TDX
    EXPECT_EQ(matrix.simulated, 3u);
    EXPECT_TRUE(matrix.run(1, 0) == matrix.run(0, 0));
    EXPECT_FALSE(matrix.run(3, 0) == matrix.run(2, 0));
    for (std::size_t c = 0; c < configs.size(); ++c)
        EXPECT_TRUE(matrix.run(c, 0) == runCycle(workload, configs[c]));
}

// PE 0 sends two tokens back to back. Under the conservative view its
// first token's push, in the cycle it lands, makes the output look
// full, so the second send waits a cycle; +Q sends it at once. PE 1
// takes the first token and halts without a second queue check.
const char *const kBackToBackSender =
    ".pe 0\n"
    "when %p == XXXXXX00: mov %o0.0, #1; set %p = ZZZZZZ01;\n"
    "when %p == XXXXXX01: mov %o0.0, #2; set %p = ZZZZZZ10;\n"
    "when %p == XXXXXX10: halt;\n"
    ".pe 1\n"
    "when %p == XXXXXXX0 with %i0.0: mov %r0, %i0; deq %i0; "
    "set %p = ZZZZZZZ1;\n"
    "when %p == XXXXXXX1: halt;\n";

TEST(DerivedCells, QueueWitnessSeesAPushLandingThisCycle)
{
    FabricBuilder builder(ArchParams{}, 2);
    builder.connect(0, 0, 1, 0);
    const Workload workload =
        programWorkload("back_to_back", kBackToBackSender, builder.build());

    const KnobWitness witness = witnessOf(workload, configOf("T|DX"));
    EXPECT_TRUE(witness.effectiveQueueStatus);
    EXPECT_FALSE(witness.predictPredicates);
    // TDX pushes after it resolves: the views never disagree.
    EXPECT_FALSE(witnessOf(workload, configOf("TDX")).effectiveQueueStatus);

    const std::vector<PeConfig> configs = {configOf("T|DX"),
                                           configOf("T|DX +Q")};
    const CycleMatrix matrix = runCycleMatrix({workload}, configs);
    EXPECT_EQ(matrix.derived, 0u);
    EXPECT_EQ(matrix.simulated, 2u);
    ASSERT_TRUE(matrix.run(0, 0).ok());
    EXPECT_LT(matrix.run(1, 0).worker.cycles, matrix.run(0, 0).worker.cycles);
    for (std::size_t c = 0; c < configs.size(); ++c)
        EXPECT_TRUE(matrix.run(c, 0) == runCycle(workload, configs[c]));
}

// Two PEs, each waiting for the other's token: a deadlock.
const char *const kCrossWired =
    ".pe 0\n"
    "when %p == XXXXXXX0 with %i0.0: mov %o0.0, %i0; deq %i0; "
    "set %p = ZZZZZZZ1;\n"
    "when %p == XXXXXXX1: halt;\n"
    ".pe 1\n"
    "when %p == XXXXXXX0 with %i0.0: mov %o0.0, %i0; deq %i0; "
    "set %p = ZZZZZZZ1;\n"
    "when %p == XXXXXXX1: halt;\n";

TEST(DerivedCells, UnhaltedRunsDeriveNothing)
{
    FabricBuilder builder(ArchParams{}, 2);
    builder.connect(0, 0, 1, 0);
    builder.connect(1, 0, 0, 0);
    const Workload workload =
        programWorkload("cross_wired", kCrossWired, builder.build());
    // TDX proves both knobs inert, yet the run did not halt.
    const KnobWitness witness = witnessOf(workload, configOf("TDX"));
    EXPECT_FALSE(witness.predictPredicates);
    EXPECT_FALSE(witness.effectiveQueueStatus);

    const std::vector<PeConfig> configs = {
        configOf("TDX"), configOf("TDX +P"), configOf("TDX +Q"),
        configOf("TDX +P+Q")};
    const CycleMatrix matrix = runCycleMatrix({workload}, configs);
    EXPECT_EQ(matrix.run(0, 0).status, RunStatus::Deadlock);
    EXPECT_EQ(matrix.derived, 0u);
    EXPECT_EQ(matrix.simulated, configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c)
        EXPECT_TRUE(matrix.run(c, 0) == runCycle(workload, configs[c]));
}

// Named for a second leg that ran the reference scheduler, which went
// when the PE kept schedule() as its one resolution path.
TEST(DerivedCells, InjectedAndReferenceRunsDeriveNothing)
{
    const std::vector<Workload> suite = {makeGcd(WorkloadSizes::small()),
                                         makeMerge(WorkloadSizes::small())};
    const std::vector<PeConfig> configs = {
        configOf("TDX"), configOf("TDX +P"), configOf("TDX +Q"),
        configOf("TDX +P+Q")};
    // Clean, the TDX row derives all of its siblings.
    EXPECT_EQ(runCycleMatrix(suite, configs).derived, 3 * suite.size());

    const FaultPlan plan = FaultPlan::parse(
        "seed=99;drop:ch0@p0.05;corrupt:ch0@p0.02,mask=0x4");
    CycleRunOptions injected;
    injected.faults = &plan;
    const CycleMatrix matrix = runCycleMatrix(suite, configs, injected, 2);
    EXPECT_EQ(matrix.derived, 0u);
    EXPECT_EQ(matrix.simulated, matrix.runs.size());
    expectMatches(matrix, configs, suite,
                  perCellRuns(suite, configs, injected), "injected");
}

} // namespace
} // namespace tia
