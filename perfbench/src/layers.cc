/**
 * @file
 * perfbench-layers: the benchmark's traced, in-process per-layer run.
 *
 * Calls each module's public functions directly, with a span around
 * every call (span.hh), and reports one number per layer metric:
 *
 *   workloads  allWorkloads(full) + allConfigs()
 *   uarch      CycleFabric construction + preload, CycleFabric::run per
 *              pipeline shape, step and trigger-resolution accounting
 *   exec       a replica of the tia-sweep matrix on SweepPipeline::run,
 *              one span per runCycle (cell) and per sink call
 *   cache      workloadRunKey, the WorkloadRun codec, SimCache
 *              save/load of the full tier, lookup outcomes
 *   vlsi       DesignSpace::enumerateStreamed over the full grid
 *   obs        workloadRunMetrics x cells + MetricsRegistry dump
 *   serve      JsonValue::parse + parseRequest, makeResult + dump
 *   trace      traced vs untraced replica wall time
 *
 *   perfbench-layers --mode cold|warm --jobs N --work DIR
 *                    --out METRICS.json --trace TRACE.json
 *
 * --mode picks the cache direction of the replica the exec and cache
 * numbers come from: cold writes an empty tier (as tia-sweep does on
 * its first run), warm reads a tier filled by a cold pass first. The
 * metrics document also carries the replica's cycle matrix so the
 * caller can check it against the pinned golden values. Exit status is
 * non-zero if any simulated cell fails its golden-model check.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/run_cache.hh"
#include "cache/simcache.hh"
#include "exec/pipeline.hh"
#include "exec/thread_pool.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "serve/protocol.hh"
#include "serve/registry.hh"
#include "span.hh"
#include "uarch/config.hh"
#include "uarch/cycle_fabric.hh"
#include "vlsi/dse.hh"
#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace {

using namespace tia;
using perfbench::nowNs;
using perfbench::recorder;
using Scope = perfbench::SpanRecorder::Scope;

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
msSince(std::uint64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) / 1e6;
}

struct Replica
{
    std::vector<WorkloadRun> runs;
    double wallS = 0.0;
    unsigned jobs = 1;
    /** exec-layer numbers derived from the replica's spans. */
    double busyS = 0.0;
    double idleFrac = 0.0;
    double starvedS = 0.0;
    double sinkWaitS = 0.0;
    double longestCellMs = 0.0;
};

/**
 * One tia-sweep matrix (configs x workloads, row-major) through
 * SweepPipeline::run, with a span around every runCycle and every
 * sink call. The exec numbers are computed from the spans of this
 * replica only (those whose parent is its matrix span).
 */
Replica
runReplica(const std::vector<Workload> &suite,
           const std::vector<PeConfig> &configs,
           const CycleRunOptions &options, unsigned jobs)
{
    perfbench::SpanRecorder &rec = recorder();
    Replica replica;
    const std::size_t count = configs.size() * suite.size();
    replica.runs.resize(count);
    const SweepPipeline pipeline(jobs);

    std::uint64_t matrixId = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    {
        Scope matrix(rec, "exec.matrix");
        matrixId = matrix.id();
        startNs = nowNs();
        const PipelineResult result = pipeline.run(
            count,
            [&](std::size_t i) {
                Scope cell(rec, "exec.cell", static_cast<std::int64_t>(i),
                           matrixId);
                return runCycle(suite[i % suite.size()],
                                configs[i / suite.size()], options);
            },
            [&](std::size_t i, WorkloadRun &&run) {
                Scope sink(rec, "exec.sink", static_cast<std::int64_t>(i),
                           matrixId);
                replica.runs[i] = std::move(run);
            });
        endNs = nowNs();
        replica.jobs = result.jobs;
    }
    replica.wallS = static_cast<double>(endNs - startNs) / 1e9;
    if (!rec.enabled() || matrixId == 0)
        return replica;

    // Per-worker busy intervals, and the start of the last cell to
    // begin: before it, some cell was still waiting to run, so any
    // idle worker in [start, lastStart) was starved of work.
    std::map<unsigned, std::vector<perfbench::Span>> byThread;
    double sinkS = 0.0;
    std::uint64_t lastStart = startNs;
    for (const perfbench::Span &s : rec.spans()) {
        if (s.parent != matrixId)
            continue;
        const double secs = static_cast<double>(s.endNs - s.startNs) / 1e9;
        if (std::string(s.name) == "exec.sink") {
            sinkS += secs;
            continue;
        }
        byThread[s.thread].push_back(s);
        replica.busyS += secs;
        replica.longestCellMs = std::max(replica.longestCellMs, s.ms());
        lastStart = std::max(lastStart, s.startNs);
    }
    const double window = static_cast<double>(lastStart - startNs) / 1e9;
    double starved = window * (replica.jobs - std::min<std::size_t>(
                                                  replica.jobs,
                                                  byThread.size()));
    for (const auto &[thread, cells] : byThread) {
        double busyInWindow = 0.0;
        for (const perfbench::Span &s : cells) {
            const std::uint64_t a = std::max(s.startNs, startNs);
            const std::uint64_t b = std::min(s.endNs, lastStart);
            if (b > a)
                busyInWindow += static_cast<double>(b - a) / 1e9;
        }
        starved += std::max(0.0, window - busyInWindow);
    }
    replica.starvedS = replica.jobs > 1 ? starved : 0.0;
    replica.idleFrac =
        1.0 - replica.busyS / (replica.wallS * replica.jobs);
    replica.sinkWaitS = std::max(0.0, replica.wallS - sinkS);
    return replica;
}

std::string
dashed(std::string name)
{
    std::replace(name.begin(), name.end(), '|', '-');
    return name;
}

int
run(int argc, char **argv)
{
    std::string mode = "cold";
    unsigned jobs = 0;
    std::string work = ".";
    std::string outPath;
    std::string tracePath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error(arg + " needs an argument");
        const std::string value = argv[++i];
        if (arg == "--mode")
            mode = value;
        else if (arg == "--jobs")
            jobs = static_cast<unsigned>(std::stoul(value));
        else if (arg == "--work")
            work = value;
        else if (arg == "--out")
            outPath = value;
        else if (arg == "--trace")
            tracePath = value;
        else
            throw std::runtime_error("unknown option " + arg);
    }
    if (mode != "cold" && mode != "warm")
        throw std::runtime_error("--mode must be cold or warm");
    if (jobs == 0)
        jobs = ThreadPool::defaultConcurrency();
    if (outPath.empty() || tracePath.empty())
        throw std::runtime_error("--out and --trace are required");
    std::filesystem::create_directories(work);

    perfbench::SpanRecorder &rec = recorder();
    rec.setEnabled(true);
    JsonValue metrics = JsonValue::object();
    bool allOk = true;

    // ---- workloads ------------------------------------------------------
    std::vector<Workload> suite;
    std::vector<PeConfig> configs;
    {
        std::vector<double> ms;
        for (int rep = 0; rep < 5; ++rep) {
            Scope s(rec, "workloads.suite_build");
            const std::uint64_t t0 = nowNs();
            suite = allWorkloads(WorkloadSizes::full());
            configs = allConfigs();
            ms.push_back(msSince(t0));
        }
        metrics["workloads.suite_build_ms"] = median(ms);
    }
    const std::size_t cells = configs.size() * suite.size();

    // ---- uarch: CycleFabric::run per pipeline shape ------------------------
    {
        std::vector<double> buildUs;
        for (const PipelineShape &shape : allShapes()) {
            const PeConfig config{shape, false, false};
            double runNs = 0.0;
            double cycles = 0.0;
            for (std::size_t w = 0; w < suite.size(); ++w) {
                const Workload &workload = suite[w];
                std::uint64_t t0 = nowNs();
                std::optional<CycleFabric> fabric;
                {
                    Scope s(rec, "uarch.fabric_build",
                            static_cast<std::int64_t>(w));
                    fabric.emplace(workload.config, workload.program, config);
                    workload.preload(fabric->memory());
                }
                buildUs.push_back(static_cast<double>(nowNs() - t0) / 1e3);
                RunStatus status;
                {
                    Scope s(rec, "uarch.run", static_cast<std::int64_t>(w));
                    t0 = nowNs();
                    status = fabric->run(FabricRunOptions{});
                    runNs += static_cast<double>(nowNs() - t0);
                }
                cycles += static_cast<double>(fabric->now());
                if (status != RunStatus::Halted ||
                    !workload.check(fabric->memory()).empty()) {
                    std::fprintf(stderr,
                                 "perfbench-layers: %s on %s failed\n",
                                 workload.name.c_str(),
                                 config.name().c_str());
                    allOk = false;
                }
            }
            metrics["uarch.ns_per_cycle." + dashed(shape.name())] =
                cycles > 0.0 ? runNs / cycles : 0.0;
        }
        metrics["uarch.fabric_build_us"] = median(buildUs);
    }

    // ---- exec + cache: the matrix replica ---------------------------------
    const std::string tierPath = work + "/layers.tiasimc";
    std::filesystem::remove(tierPath);
    SimCache coldCache;
    CycleRunOptions coldOptions;
    coldOptions.cache = &coldCache;
    Replica replica = runReplica(suite, configs, coldOptions, jobs);
    std::string saveError;
    if (!coldCache.save(tierPath, &saveError))
        throw std::runtime_error("cannot save tier: " + saveError);
    SimCache warmCache;
    SimCache *measured = &coldCache;
    if (mode == "warm") {
        std::string loadError;
        if (!warmCache.load(tierPath, &loadError) || !loadError.empty())
            throw std::runtime_error("cannot load tier: " + loadError);
        CycleRunOptions warmOptions;
        warmOptions.cache = &warmCache;
        replica = runReplica(suite, configs, warmOptions, jobs);
        measured = &warmCache;
    }
    metrics["exec.jobs"] = replica.jobs;
    metrics["exec.wall_s"] = replica.wallS;
    metrics["exec.busy_s"] = replica.busyS;
    metrics["exec.worker_idle_frac"] = replica.idleFrac;
    metrics["exec.starved_worker_s"] = replica.starvedS;
    metrics["exec.sink_wait_s"] = replica.sinkWaitS;
    metrics["exec.longest_cell_ms"] = replica.longestCellMs;

    double simCycles = 0.0, executed = 0.0, skipped = 0.0;
    double resolutionSkips = 0.0, resolutionFulls = 0.0;
    JsonValue cycleMatrix = JsonValue::array();
    for (std::size_t c = 0; c < configs.size(); ++c) {
        JsonValue row = JsonValue::array();
        for (std::size_t w = 0; w < suite.size(); ++w) {
            const WorkloadRun &r = replica.runs[c * suite.size() + w];
            allOk = allOk && r.ok();
            row.push(static_cast<std::uint64_t>(r.totalCycles));
            simCycles += static_cast<double>(r.totalCycles);
            executed += static_cast<double>(r.peStepsExecuted);
            skipped += static_cast<double>(r.peStepsSkipped);
            resolutionSkips += static_cast<double>(r.resolutionSkips);
            resolutionFulls += static_cast<double>(r.resolutionFulls);
        }
        cycleMatrix.push(std::move(row));
    }
    metrics["uarch.sim_cycles"] = static_cast<std::uint64_t>(simCycles);
    metrics["uarch.sleep_skip_frac"] =
        executed + skipped > 0.0 ? skipped / (executed + skipped) : 0.0;
    metrics["uarch.resolution_skip_frac"] =
        resolutionSkips + resolutionFulls > 0.0
            ? resolutionSkips / (resolutionSkips + resolutionFulls)
            : 0.0;

    const SimCache::Stats stats = measured->stats();
    metrics["cache.hits"] = stats.hits;
    metrics["cache.misses"] = stats.misses;
    metrics["cache.coalesced"] = stats.coalesced;
    metrics["cache.hit_frac"] =
        stats.lookups > 0 ? static_cast<double>(stats.hits) /
                                static_cast<double>(stats.lookups)
                          : 0.0;

    // Per-call codec and key costs over every cell of the matrix.
    {
        const CycleRunOptions keyOptions;
        std::vector<Digest128> keys(cells);
        std::vector<std::string> payloads(cells);
        std::uint64_t t0 = nowNs();
        for (std::size_t i = 0; i < cells; ++i) {
            Scope s(rec, "cache.key", static_cast<std::int64_t>(i));
            keys[i] = workloadRunKey(suite[i % suite.size()],
                                     configs[i / suite.size()], keyOptions);
        }
        metrics["cache.key_us"] =
            static_cast<double>(nowNs() - t0) / 1e3 / cells;
        t0 = nowNs();
        for (std::size_t i = 0; i < cells; ++i) {
            Scope s(rec, "cache.encode", static_cast<std::int64_t>(i));
            payloads[i] = encodeWorkloadRun(replica.runs[i]);
        }
        metrics["cache.encode_us"] =
            static_cast<double>(nowNs() - t0) / 1e3 / cells;
        t0 = nowNs();
        for (std::size_t i = 0; i < cells; ++i) {
            Scope s(rec, "cache.decode", static_cast<std::int64_t>(i));
            const std::optional<WorkloadRun> back =
                decodeWorkloadRun(payloads[i]);
            if (!back || !(*back == replica.runs[i])) {
                std::fprintf(stderr, "perfbench-layers: cell %zu does not "
                                     "round-trip the codec\n", i);
                allOk = false;
            }
        }
        metrics["cache.decode_us"] =
            static_cast<double>(nowNs() - t0) / 1e3 / cells;

        std::vector<double> saveMs, loadMs;
        const std::string benchTier = work + "/layers-save.tiasimc";
        for (int rep = 0; rep < 3; ++rep) {
            std::filesystem::remove(benchTier);
            SimCache fresh;
            for (std::size_t i = 0; i < cells; ++i)
                fresh.put(keys[i], payloads[i]);
            std::string error;
            Scope s(rec, "cache.save");
            t0 = nowNs();
            if (!fresh.save(benchTier, &error))
                throw std::runtime_error("cannot save tier: " + error);
            saveMs.push_back(msSince(t0));
        }
        for (int rep = 0; rep < 3; ++rep) {
            SimCache fresh;
            std::string error;
            Scope s(rec, "cache.load");
            t0 = nowNs();
            const bool loaded = fresh.load(benchTier, &error);
            loadMs.push_back(msSince(t0));
            if (!loaded || fresh.size() != cells)
                throw std::runtime_error("tier did not load: " + error);
        }
        metrics["cache.save_ms"] = median(saveMs);
        metrics["cache.load_ms"] = median(loadMs);
    }

    // ---- vlsi: the full DSE grid on the replica's bst CPIs ---------------
    {
        std::size_t bst = suite.size();
        for (std::size_t w = 0; w < suite.size(); ++w)
            if (suite[w].name == "bst")
                bst = w;
        if (bst == suite.size())
            throw std::runtime_error("suite has no bst workload");
        CpiTable table;
        for (std::size_t c = 0; c < configs.size(); ++c)
            table[configs[c].name()] =
                replica.runs[c * suite.size() + bst].worker.cpi();
        const DesignSpace space(std::move(table));
        std::vector<double> ms;
        DseStreamResult result;
        for (int rep = 0; rep < 3; ++rep) {
            Scope s(rec, "vlsi.dse");
            const std::uint64_t t0 = nowNs();
            result = space.enumerateStreamed(jobs, configs, {});
            ms.push_back(msSince(t0));
        }
        metrics["vlsi.dse_ms"] = median(ms);
        metrics["vlsi.points_evaluated"] = result.points.size();
        metrics["vlsi.frontier_points"] = result.frontier.size();
    }

    // ---- obs: the tia-sweep --metrics document ---------------------------
    {
        std::vector<double> ms;
        std::size_t bytes = 0;
        for (int rep = 0; rep < 3; ++rep) {
            Scope s(rec, "obs.metrics_emit");
            const std::uint64_t t0 = nowNs();
            MetricsRegistry registry("tia-sweep");
            for (std::size_t i = 0; i < cells; ++i)
                registry.addRun(workloadRunMetrics(
                    replica.runs[i], configs[i / suite.size()],
                    suite[i % suite.size()].name));
            bytes = registry.dump().size();
            ms.push_back(msSince(t0));
        }
        metrics["obs.metrics_emit_ms"] = median(ms);
        metrics["obs.metrics_bytes"] = bytes;
    }

    // ---- serve: request parse and response encode ------------------------
    {
        const std::string request =
            "{\"id\": 4242, \"method\": \"simulate\", \"client\": "
            "\"perfbench\", \"params\": {\"workload\": \"merge\", "
            "\"uarch\": \"T|DX1|X2 +P+Q\", \"sizes\": \"small\"}}";
        constexpr int kParses = 20000;
        std::uint64_t t0 = 0;
        {
            Scope s(rec, "serve.request_parse");
            t0 = nowNs();
            for (int i = 0; i < kParses; ++i) {
                std::string error;
                const std::optional<JsonValue> doc =
                    JsonValue::parse(request, &error);
                if (!doc || !parseRequest(*doc, &error))
                    throw std::runtime_error("request parse: " + error);
            }
        }
        metrics["serve.request_parse_us"] =
            static_cast<double>(nowNs() - t0) / 1e3 / kParses;

        // The result a small simulate request gets back, built the way
        // the server builds it (default analyses: cpi and verdict).
        const ServeRegistry registry = ServeRegistry::builtin();
        const Workload workload = makeMerge(WorkloadSizes::small());
        const PeConfig config = *parseConfigName("T|DX1|X2 +P+Q");
        const WorkloadRun cell = runCycle(workload, config);
        JsonValue result = JsonValue::object();
        result["workload"] = workload.name;
        result["uarch"] = config.name();
        result["sizes"] = "small";
        result["status"] = runStatusName(cell.status);
        result["cycles"] = cell.totalCycles;
        result["check"] = "ok";
        JsonValue analyses = JsonValue::object();
        for (const char *name : {"cpi", "verdict"})
            analyses[name] = (*registry.analysis(name))(cell);
        result["analyses"] = std::move(analyses);

        constexpr int kBatch = 1000;
        constexpr int kBatches = 10;
        double encodeNs = 0.0;
        std::size_t bytes = 0;
        Scope s(rec, "serve.response_encode");
        for (int b = 0; b < kBatches; ++b) {
            std::vector<JsonValue> copies(kBatch, result);
            t0 = nowNs();
            for (int i = 0; i < kBatch; ++i)
                bytes += makeResult(static_cast<std::uint64_t>(i),
                                    std::move(copies[i]))
                             .dump()
                             .size();
            encodeNs += static_cast<double>(nowNs() - t0);
        }
        metrics["serve.response_encode_us"] =
            encodeNs / 1e3 / (kBatch * kBatches);
        metrics["serve.response_bytes"] =
            static_cast<std::uint64_t>(bytes / (kBatch * kBatches));
    }

    // ---- trace: cost of recording spans on the cold replica -------------
    // Alternate traced and untraced cold replicas (T U U T) so drift on
    // the host cancels; each runs on its own empty cache, like a cold
    // tia-sweep.
    {
        std::vector<double> traced, untraced;
        for (bool on : {true, false, false, true}) {
            rec.setEnabled(on);
            SimCache cache;
            CycleRunOptions options;
            options.cache = &cache;
            const Replica r = runReplica(suite, configs, options, jobs);
            (on ? traced : untraced).push_back(r.wallS);
        }
        rec.setEnabled(true);
        metrics["trace.traced_wall_s"] = median(traced);
        metrics["trace.untraced_wall_s"] = median(untraced);
        metrics["trace.overhead_frac"] =
            median(traced) / median(untraced) - 1.0;
        metrics["trace.spans"] = rec.spans().size();
    }

    JsonValue doc = JsonValue::object();
    doc["mode"] = mode;
    doc["ok"] = allOk;
    doc["metrics"] = std::move(metrics);
    JsonValue configNames = JsonValue::array();
    for (const PeConfig &config : configs)
        configNames.push(config.name());
    doc["configs"] = std::move(configNames);
    JsonValue workloadNames = JsonValue::array();
    for (const Workload &workload : suite)
        workloadNames.push(workload.name);
    doc["workloads"] = std::move(workloadNames);
    doc["cycles"] = std::move(cycleMatrix);

    std::FILE *out = std::fopen(outPath.c_str(), "w");
    if (out == nullptr)
        throw std::runtime_error("cannot write " + outPath);
    std::fputs(doc.dump().c_str(), out);
    std::fputs("\n", out);
    std::fclose(out);
    if (!rec.writeChromeTrace(tracePath))
        throw std::runtime_error("cannot write " + tracePath);
    return allOk ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench-layers: %s\n", error.what());
        return 2;
    }
}
