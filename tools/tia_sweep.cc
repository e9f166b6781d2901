/**
 * @file
 * tia-sweep: batch sweep driver emitting machine-readable JSON.
 *
 * Runs the full uarch x workload CPI matrix (the Figure 5 product)
 * and the VLSI design-space exploration (Figures 6-8) on the streaming
 * sweep pipeline (exec/pipeline.hh): JSON row assembly and metrics
 * entries are built in the pipeline's in-order sink while later cells
 * are still simulating. The cache is saved after the matrix, and the
 * DSE then runs through DesignSpace::enumerateStreamed. Emits one JSON
 * document with the matrix, the attempted/evaluated design-point
 * counts and the energy-delay Pareto frontier. Results are
 * bit-identical for any --jobs value (asserted by the ctest fixtures);
 * the wall_ms fields are the measured sweep times (the speedup
 * evidence on multi-core hosts).
 *
 *   tia-sweep [options]
 *
 * Options:
 *   --jobs N     worker threads (default: hardware concurrency;
 *                absurd values are clamped with a warning)
 *   --small      reduced workload sizes (fast smoke pass)
 *   --configs X  a comma-separated list of microarchitecture names
 *                (blanks around each trimmed), whose entries may also
 *                be "all" (the default) or "fig5"; tia-sim -u takes
 *                the same grammar (parseConfigList, uarch/config.hh)
 *   --suite-cpi  drive the DSE with suite-average CPI instead of the
 *                paper's bst-only methodology
 *   --no-dse     emit only the CPI matrix
 *   --incremental  stream Pareto-frontier updates to stderr during
 *                the DSE and stop once the frontier has been stable
 *                for --stable-window consecutive design points. The
 *                stop point is the same at every --jobs. The "dse"
 *                block gains the incremental/early-exit fields
 *   --stable-window N  early-exit window for --incremental
 *                (default 500 points; 0 = never exit early)
 *   --out FILE   write the JSON to FILE instead of stdout
 *   --metrics FILE  also write a tia-metrics/v1 document with one run
 *                entry per matrix cell (validate with
 *                tia-metrics-check; see docs/observability.md)
 *   --cache FILE    content-addressed result cache (docs/simcache.md):
 *                load the warm tier from FILE if present, memoize
 *                every matrix cell, save back atomically. Hit/miss/
 *                coalesced stats go to stderr and the --metrics
 *                document, never the --out JSON, so warm and cold
 *                runs emit identical documents (modulo wall_ms).
 *   --cache-verify  with --cache: re-simulate every hit and fail
 *                unless the cached result is bit-identical
 *
 * The JSON schema is documented in docs/sweep_engine.md
 * ("tia-sweep/v1").
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cache/simcache.hh"
#include "core/logging.hh"
#include "core/parse.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "sim/functional.hh"
#include "vlsi/dse.hh"
#include "workloads/cpi.hh"
#include "workloads/runner.hh"

namespace {

using namespace tia;

struct Options
{
    unsigned jobs = 0; ///< 0 = hardware concurrency.
    bool small = false;
    bool suiteCpi = false;
    bool dse = true;
    bool incremental = false; ///< Stream frontier updates + early exit.
    std::size_t stableWindow = 500;
    std::vector<PeConfig> configs = allConfigs();
    std::string outPath;
    std::string metricsPath;
    std::string cachePath;
    bool cacheVerify = false;
};

int
run(const Options &opt)
{
    const WorkloadSizes sizes =
        opt.small ? WorkloadSizes::small() : WorkloadSizes::full();
    const std::vector<PeConfig> &configs = opt.configs;
    const std::vector<Workload> suite = allWorkloads(sizes);
    const unsigned jobs =
        opt.jobs == 0 ? ThreadPool::defaultConcurrency() : opt.jobs;

    fatalIf(opt.cacheVerify && opt.cachePath.empty(),
            "--cache-verify needs --cache (there is nothing to verify "
            "without a warm tier)");
    std::optional<SimCache> cache;
    CycleRunOptions run_options;
    if (!opt.cachePath.empty()) {
        cache.emplace();
        cache->setVerifyHits(opt.cacheVerify);
        std::string load_error;
        if (!cache->load(opt.cachePath, &load_error) ||
            !load_error.empty()) {
            // Degraded warm tier (corrupt / version-mismatched file):
            // report it and proceed cache-cold.
            std::fprintf(stderr, "tia-sweep: %s\n", load_error.c_str());
        }
        run_options.cache = &*cache;
    }

    // Per-config JSON rows and metrics entries, built cell-by-cell in
    // the pipeline's in-order sink while later cells simulate.
    MetricsRegistry registry("tia-sweep");
    bool all_ok = true;
    std::vector<JsonValue> cpiRows(configs.size(), JsonValue::array());
    std::vector<JsonValue> cycleRows(configs.size(), JsonValue::array());
    std::vector<JsonValue> statusRows(configs.size(), JsonValue::array());

    const auto addCell = [&](std::size_t c, std::size_t w,
                             const WorkloadRun &cell) {
        cpiRows[c].push(cell.worker.cpi());
        cycleRows[c].push(cell.totalCycles);
        statusRows[c].push(cell.ok() ? "ok" : runStatusName(cell.status));
        all_ok = all_ok && cell.ok();
        if (!opt.metricsPath.empty()) {
            registry.addRun(workloadRunMetrics(cell, configs[c],
                                               suite[w].name));
        }
    };

    const CycleMatrix matrix =
        runCycleMatrix(suite, configs, run_options, jobs, addCell);

    if (cache) {
        std::string save_error;
        fatalIf(!cache->save(opt.cachePath, &save_error),
                "cannot save cache: ", save_error);
    }

    // Row-major [config][workload] arrays, rows parallel to "configs".
    const auto rows = [](std::vector<JsonValue> &built) {
        JsonValue array = JsonValue::array();
        for (JsonValue &row : built)
            array.push(std::move(row));
        return array;
    };
    JsonValue workloadNames = JsonValue::array();
    for (const Workload &workload : suite)
        workloadNames.push(workload.name);
    JsonValue configNames = JsonValue::array();
    for (const PeConfig &config : configs)
        configNames.push(config.name());
    JsonValue cpiMatrix = JsonValue::object();
    cpiMatrix["wall_ms"] = matrix.wallMs;
    cpiMatrix["workloads"] = std::move(workloadNames);
    cpiMatrix["configs"] = std::move(configNames);
    cpiMatrix["cpi"] = rows(cpiRows);
    cpiMatrix["cycles"] = rows(cycleRows);
    cpiMatrix["status"] = rows(statusRows);

    JsonValue doc = JsonValue::object();
    doc["schema"] = "tia-sweep/v1";
    doc["jobs"] = matrix.jobs;
    doc["sizes"] = opt.small ? "small" : "full";
    doc["cpi_matrix"] = std::move(cpiMatrix);

    if (opt.dse && all_ok) {
        CpiTable table;
        if (opt.suiteCpi) {
            for (std::size_t c = 0; c < configs.size(); ++c) {
                double sum = 0.0;
                for (std::size_t w = 0; w < suite.size(); ++w)
                    sum += matrix.run(c, w).worker.cpi();
                table[configs[c].name()] =
                    sum / static_cast<double>(suite.size());
            }
        } else {
            // The paper's methodology: bst alone drives the DSE.
            std::size_t bst = suite.size();
            for (std::size_t w = 0; w < suite.size(); ++w) {
                if (suite[w].name == "bst")
                    bst = w;
            }
            fatalIf(bst == suite.size(), "suite has no bst workload");
            for (std::size_t c = 0; c < configs.size(); ++c)
                table[configs[c].name()] = matrix.run(c, bst).worker.cpi();
        }

        const DesignSpace dse(std::move(table));
        DseStreamOptions options;
        if (opt.incremental) {
            options.stableWindow = opt.stableWindow;
            options.onFrontierUpdate =
                [](std::size_t seen,
                   const std::vector<DesignPoint> &frontier) {
                    std::fprintf(stderr,
                                 "tia-sweep: frontier %zu points after "
                                 "%zu design points\n",
                                 frontier.size(), seen);
                };
        }
        const DseStreamResult stream =
            dse.enumerateStreamed(jobs, configs, options);

        JsonValue dseBlock = JsonValue::object();
        dseBlock["cpi_source"] = opt.suiteCpi ? "suite-average" : "bst";
        dseBlock["wall_ms"] = stream.wallMs;
        dseBlock["grid_points"] = dse.gridSize(configs);
        if (opt.incremental) {
            dseBlock["incremental"] = true;
            dseBlock["stable_window"] = opt.stableWindow;
            dseBlock["early_exit"] = stream.earlyExit;
            dseBlock["frontier_updates"] = stream.frontierUpdates;
            dseBlock["shards_completed"] = stream.shardsCompleted;
            dseBlock["shards_total"] = stream.shardsTotal;
        }
        dseBlock["evaluated"] = stream.points.size();
        JsonValue pareto = JsonValue::array();
        for (const DesignPoint &p : stream.frontier) {
            JsonValue point = JsonValue::object();
            point["config"] = p.config.name();
            point["vt"] = vtName(p.vt);
            point["vdd"] = p.vdd;
            point["freq_mhz"] = p.freqMhz;
            point["max_freq_mhz"] = p.maxFreqMhz;
            point["cpi"] = p.cpi;
            point["ns_per_ins"] = p.nsPerInstruction;
            point["pj_per_ins"] = p.pjPerInstruction;
            point["area_um2"] = p.areaUm2;
            point["power_mw"] = p.powerMw;
            point["power_density_mw_mm2"] = p.powerDensity();
            point["edp"] = p.edp();
            pareto.push(std::move(point));
        }
        dseBlock["pareto"] = std::move(pareto);
        doc["dse"] = std::move(dseBlock);
    }

    if (!opt.metricsPath.empty()) {
        registry.root()["sizes"] = opt.small ? "small" : "full";
        if (cache)
            registry.root()["cache"] = cache->statsJson();
        fatalIf(!registry.writeTo(opt.metricsPath), "cannot write ",
                opt.metricsPath);
    }

    const std::string json = doc.dump();
    if (opt.outPath.empty()) {
        std::fputs(json.c_str(), stdout);
    } else {
        std::FILE *out = std::fopen(opt.outPath.c_str(), "w");
        fatalIf(out == nullptr, "cannot open ", opt.outPath);
        std::fputs(json.c_str(), out);
        std::fclose(out);
    }
    std::fprintf(stderr,
                 "tia-sweep: %zu configs x %zu workloads on %u worker "
                 "thread(s), CPI matrix %.1f ms\n",
                 configs.size(), suite.size(), matrix.jobs,
                 matrix.wallMs);
    if (cache)
        std::fprintf(stderr, "tia-sweep: %s\n",
                     cache->statsSummary().c_str());
    return all_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                fatalIf(i + 1 >= argc, arg, " needs an argument");
                return argv[++i];
            };
            if (arg == "--jobs") {
                opt.jobs = ThreadPool::parseJobs(next());
            } else if (arg == "--small") {
                opt.small = true;
            } else if (arg == "--suite-cpi") {
                opt.suiteCpi = true;
            } else if (arg == "--no-dse") {
                opt.dse = false;
            } else if (arg == "--incremental") {
                opt.incremental = true;
            } else if (arg == "--stable-window") {
                opt.stableWindow = parseCount64("--stable-window", next());
            } else if (arg == "--configs") {
                opt.configs = parseConfigList(next());
            } else if (arg == "--out") {
                opt.outPath = next();
            } else if (arg == "--metrics") {
                opt.metricsPath = next();
            } else if (arg == "--cache") {
                opt.cachePath = next();
            } else if (arg == "--cache-verify") {
                opt.cacheVerify = true;
            } else {
                std::fprintf(stderr, "unknown option %s\n", arg.c_str());
                return 2;
            }
        }
        return run(opt);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "tia-sweep: %s\n", error.what());
        return 1;
    }
}
