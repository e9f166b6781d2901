/**
 * @file
 * Simulator microbenchmarks (google-benchmark): cycle throughput of
 * the pipelined PE model, functional-simulator step rate, assembler
 * and encoder throughput. Not a paper figure — this characterizes the
 * reproduction infrastructure itself.
 */

#include <benchmark/benchmark.h>

#include <optional>

#include "bench_util.hh"
#include "cache/simcache.hh"
#include "core/assembler.hh"
#include "core/encoding.hh"
#include "exec/thread_pool.hh"
#include "obs/reconstruct.hh"
#include "uarch/cycle_fabric.hh"
#include "vlsi/dse.hh"
#include "workloads/cpi.hh"
#include "workloads/runner.hh"

namespace {

using namespace tia;

void
BM_CyclePeAluLoop(benchmark::State &state)
{
    const Program program = assemble(
        "when %p == XXXXXXX0: add %r0, %r0, #1; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: add %r1, %r1, #1; set %p = ZZZZZZZ0;\n");
    FabricBuilder builder(program.params, 1);
    const PipelineShape shape{
        state.range(0) != 0, state.range(0) != 0, state.range(0) != 0};
    CycleFabric fabric(builder.build(), program, {shape, true, true});
    for (auto _ : state)
        fabric.step();
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(shape.name());
}
BENCHMARK(BM_CyclePeAluLoop)->Arg(0)->Arg(1);

void
BM_CycleFabricDotProduct(benchmark::State &state)
{
    const Workload w = makeDotProduct(WorkloadSizes::small());
    for (auto _ : state) {
        const WorkloadRun run =
            runCycle(w, {PipelineShape{true, false, false}, true, true});
        benchmark::DoNotOptimize(run.worker.cycles);
        state.SetIterationTime(0.0); // wall-clock measured by default
        state.counters["cycles"] = static_cast<double>(run.totalCycles);
    }
}
BENCHMARK(BM_CycleFabricDotProduct)->Unit(benchmark::kMillisecond);

// Small Table 3 workloads through runCycle, so through CycleFabric::run
// and its lone-PE run-ahead, which BM_CyclePeAluLoop (calling step()
// directly) never enters. The three cover the run-ahead memo's regimes
// (docs/perf.md, "Memoized run-ahead"): gcd is one long episode,
// udiv's episodes end at its pushes and pops (148.5 cycles on average
// at full size), and bst's last 3.1, too short to engage the memo.
// Items are simulated cycles, so items_per_second is the end-to-end
// cycle rate including fabric construction. Arg 0 = TDX, 1 = T|D|X1|X2.
void
cycleRun(benchmark::State &state, const Workload &w)
{
    const PipelineShape shape{
        state.range(0) != 0, state.range(0) != 0, state.range(0) != 0};
    std::int64_t cycles = 0;
    for (auto _ : state) {
        const WorkloadRun run = runCycle(w, {shape, false, false});
        benchmark::DoNotOptimize(run.worker.cycles);
        cycles += static_cast<std::int64_t>(run.totalCycles);
    }
    state.SetItemsProcessed(cycles);
    state.SetLabel(shape.name());
}

void
BM_CycleRunGcd(benchmark::State &state)
{
    cycleRun(state, makeGcd(WorkloadSizes::small()));
}
BENCHMARK(BM_CycleRunGcd)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void
BM_CycleRunUdiv(benchmark::State &state)
{
    cycleRun(state, makeUdiv(WorkloadSizes::small()));
}
BENCHMARK(BM_CycleRunUdiv)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void
BM_CycleRunBst(benchmark::State &state)
{
    cycleRun(state, makeBst(WorkloadSizes::small()));
}
BENCHMARK(BM_CycleRunBst)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The same run with a trace sink attached: the observability tax when
// tracing is ON, here a counter-reconstructing sink. Compare against
// BM_CycleFabricDotProduct for the enabled overhead; the DISABLED
// overhead (sink unset) is the <2% regression bound
// BM_CycleFabricDotProduct itself guards via BENCH_throughput.json.
void
BM_CycleFabricDotProductTraced(benchmark::State &state)
{
    const Workload w = makeDotProduct(WorkloadSizes::small());
    for (auto _ : state) {
        CpiReconstructor recon;
        CycleRunOptions options;
        options.trace = &recon;
        const WorkloadRun run = runCycle(
            w, {PipelineShape{true, false, false}, true, true}, options);
        benchmark::DoNotOptimize(run.worker.cycles);
        state.counters["cycles"] = static_cast<double>(run.totalCycles);
        state.counters["events"] =
            static_cast<double>(recon.totalEvents());
    }
    state.SetLabel("reconstruct");
}
BENCHMARK(BM_CycleFabricDotProductTraced)->Unit(benchmark::kMillisecond);

// A sparse fabric: one busy ALU-loop PE among many programless ones.
// Exercises the idle-PE sleep list — host throughput should track the
// number of *busy* PEs, not the fabric size.
void
BM_CycleFabricSparse(benchmark::State &state)
{
    const Program program = assemble(
        "when %p == XXXXXXX0: add %r0, %r0, #1; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: add %r1, %r1, #1; set %p = ZZZZZZZ0;\n");
    const unsigned pes = static_cast<unsigned>(state.range(0));
    FabricBuilder builder(program.params, pes);
    CycleFabric fabric(builder.build(), program,
                       {PipelineShape{}, true, true});
    for (auto _ : state)
        fabric.step();
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(std::to_string(pes) + " PEs, 1 busy");
}
BENCHMARK(BM_CycleFabricSparse)->Arg(4)->Arg(32);

// Two PEs trading a token back and forth: the steady state alternates
// busy and idle cycles on each PE, stressing the park/wake transition
// rather than either extreme.
void
BM_CycleFabricPingPong(benchmark::State &state)
{
    const Program program = assemble(
        ".pe 0\n"
        "when %p == XXXXXXX0: add %o0.0, %r0, #1; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1 with %i0.0: add %r0, %r0, %i0; deq %i0; "
        "set %p = ZZZZZZZ0;\n"
        ".pe 1\n"
        "when %p == XXXXXXX0 with %i0.0: add %o0.0, %i0, #1; deq %i0;\n");
    FabricBuilder builder(program.params, 2);
    builder.connect(0, 0, 1, 0);
    builder.connect(1, 0, 0, 0);
    CycleFabric fabric(builder.build(), program,
                       {PipelineShape{}, true, true});
    for (auto _ : state)
        fabric.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CycleFabricPingPong);

void
BM_FunctionalBst(benchmark::State &state)
{
    const Workload w = makeBst(WorkloadSizes::small());
    for (auto _ : state) {
        const WorkloadRun run = runFunctional(w);
        benchmark::DoNotOptimize(run.worker.retired);
    }
}
BENCHMARK(BM_FunctionalBst)->Unit(benchmark::kMillisecond);

void
BM_Assemble(benchmark::State &state)
{
    const std::string source =
        "when %p == XXXX0000 with %i0.0, %i3.0: ult %p7, %i3, %i0; "
        "set %p = ZZZZ0001;\n"
        "when %p == XXXX0001: add %o0.2, %r1, #7; deq %i0; "
        "set %p = ZZZZ0010;\n"
        "when %p == XXXX0010: halt;\n";
    for (auto _ : state) {
        const Program program = assemble(source);
        benchmark::DoNotOptimize(program.staticInstructions());
    }
}
BENCHMARK(BM_Assemble);

void
BM_EncodeDecode(benchmark::State &state)
{
    const ArchParams params;
    const Program program = assemble(
        "when %p == XXXX0000 with %i0.0, %i3.0: ult %p7, %i3, %i0; "
        "set %p = ZZZZ0001;\n");
    const Instruction &inst = program.pes[0][0];
    for (auto _ : state) {
        const MachineCode code = encode(params, inst);
        const Instruction decoded = decode(params, code);
        benchmark::DoNotOptimize(decoded.imm);
    }
}
BENCHMARK(BM_EncodeDecode);

// The Figure 5 matrix product on the sweep pipeline. Arg is the jobs
// count (0 = hardware concurrency); compare the Arg(1) serial
// reference against Arg(0) for the parallel wall-clock speedup on
// multi-core hosts. Items are cells; the "derived" counter says how
// many of them the matrix derived instead of simulating
// (docs/perf.md, "Derived cells").
void
BM_Fig5MatrixSweep(benchmark::State &state)
{
    const auto suite = allWorkloads(WorkloadSizes::small());
    const auto configs = figure5Configs();
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        const CycleMatrix matrix =
            runCycleMatrix(suite, configs, {}, jobs);
        benchmark::DoNotOptimize(matrix.runs.data());
        state.counters["runs"] = static_cast<double>(matrix.runs.size());
        state.counters["derived"] = static_cast<double>(matrix.derived);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(suite.size()) *
                            static_cast<std::int64_t>(configs.size()));
    state.SetLabel(jobs == 1 ? "serial"
                             : std::to_string(jobs == 0
                                                  ? ThreadPool::
                                                        defaultConcurrency()
                                                  : jobs) +
                                   " jobs");
}
BENCHMARK(BM_Fig5MatrixSweep)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The Figure 5 matrix through the simcache. Arg 0 = cold: a fresh
// cache every iteration, so the delta against BM_Fig5MatrixSweep is
// the key-hashing + result-serialization overhead (the <=2% bound in
// docs/perf.md). Arg 1 = warm: the cache is pre-populated once, so
// every cell is a hit and the measurement is pure memoized-sweep time
// (the >=5x warm speedup recorded in docs/perf.md).
void
BM_Fig5MatrixSweepCached(benchmark::State &state)
{
    const auto suite = allWorkloads(WorkloadSizes::small());
    const auto configs = figure5Configs();
    const bool warm = state.range(0) != 0;
    SimCache warm_cache;
    CycleRunOptions options;
    if (warm) {
        options.cache = &warm_cache;
        runCycleMatrix(suite, configs, options, 0);
    }
    for (auto _ : state) {
        std::optional<SimCache> cold_cache;
        if (!warm) {
            cold_cache.emplace();
            options.cache = &*cold_cache;
        }
        const CycleMatrix matrix =
            runCycleMatrix(suite, configs, options, 0);
        benchmark::DoNotOptimize(matrix.runs.data());
        state.counters["runs"] = static_cast<double>(matrix.runs.size());
        state.counters["derived"] = static_cast<double>(matrix.derived);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(suite.size()) *
                            static_cast<std::int64_t>(configs.size()));
    state.SetLabel(warm ? "warm cache" : "cold cache");
}
BENCHMARK(BM_Fig5MatrixSweepCached)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The full 32-config DSE as tia-sweep runs it: enumerate the grid,
// then take the Pareto frontier of its points.
void
BM_DseEnumerate(benchmark::State &state)
{
    CpiTable table;
    for (const PeConfig &config : allConfigs())
        table[config.name()] = 1.5;
    const DesignSpace dse(std::move(table));
    for (auto _ : state) {
        const auto points = dse.enumerate();
        const auto frontier = DesignSpace::paretoFrontier(points);
        benchmark::DoNotOptimize(frontier.data());
        state.counters["points"] = static_cast<double>(points.size());
        state.counters["frontier"] = static_cast<double>(frontier.size());
    }
}
BENCHMARK(BM_DseEnumerate)->Unit(benchmark::kMillisecond)->UseRealTime();

} // namespace

// BENCHMARK_MAIN() expanded so the build-type cross-check runs before
// any measurement: a debug benchmark library under a release project
// (or vice versa) taints timings in a way the committed baseline must
// flag (bench_util.hh).
int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    tia::bench::checkBenchmarkBuildType();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
