/**
 * @file
 * tia-sweep: batch sweep driver emitting machine-readable JSON.
 *
 * Runs the full uarch x workload CPI matrix (the Figure 5 product)
 * on the parallel sweep pipeline (exec/pipeline.hh), then builds the
 * JSON rows and metrics entries from the finished matrix, saves the
 * cache and runs the VLSI design-space exploration (Figures 6-8)
 * serially: DesignSpace::enumerate over the grid, then
 * DesignSpace::paretoFrontier over its points. Emits one JSON
 * document with the matrix, the attempted/evaluated design-point
 * counts and the energy-delay Pareto frontier. The document holds
 * results only, so it is identical for any --jobs value and cold or
 * warm (asserted by the ctest fixtures); the worker count and the
 * measured matrix and DSE times go to stderr.
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
 *   --out FILE   write the JSON to FILE instead of stdout (either way
 *                a failed write exits 1)
 *   --metrics FILE  also write a tia-metrics/v1 document with one run
 *                entry per matrix cell and a "matrix" block counting
 *                the cells simulated and derived (validate with
 *                tia-metrics-check; see docs/observability.md)
 *   --cache FILE    content-addressed result cache (docs/simcache.md):
 *                load the warm tier from FILE if present, memoize
 *                every matrix cell, save back atomically. Hit/miss/
 *                coalesced stats go to stderr and the --metrics
 *                document, never the --out JSON, so warm and cold
 *                runs emit identical documents.
 *   --cache-verify  with --cache: re-simulate every hit and fail
 *                unless the cached result is bit-identical
 *
 * The JSON schema is documented in docs/sweep_engine.md
 * ("tia-sweep/v2").
 */

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cache/simcache.hh"
#include "core/logging.hh"
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

    const CycleMatrix matrix =
        runCycleMatrix(suite, configs, run_options, jobs);

    // Row-major [config][workload] arrays, rows parallel to "configs",
    // and one metrics entry per cell in the same order.
    MetricsRegistry registry("tia-sweep");
    bool all_ok = true;
    JsonValue cpi = JsonValue::array();
    JsonValue cycles = JsonValue::array();
    JsonValue status = JsonValue::array();
    for (std::size_t c = 0; c < configs.size(); ++c) {
        JsonValue cpiRow = JsonValue::array();
        JsonValue cycleRow = JsonValue::array();
        JsonValue statusRow = JsonValue::array();
        for (std::size_t w = 0; w < suite.size(); ++w) {
            const WorkloadRun &cell = matrix.run(c, w);
            cpiRow.push(cell.worker.cpi());
            cycleRow.push(cell.totalCycles);
            statusRow.push(cell.ok() ? "ok" : runStatusName(cell.status));
            all_ok = all_ok && cell.ok();
            if (!opt.metricsPath.empty()) {
                registry.addRun(workloadRunMetrics(cell, configs[c],
                                                   suite[w].name));
            }
        }
        cpi.push(std::move(cpiRow));
        cycles.push(std::move(cycleRow));
        status.push(std::move(statusRow));
    }

    if (cache) {
        std::string save_error;
        fatalIf(!cache->save(opt.cachePath, &save_error),
                "cannot save cache: ", save_error);
    }

    JsonValue workloadNames = JsonValue::array();
    for (const Workload &workload : suite)
        workloadNames.push(workload.name);
    JsonValue configNames = JsonValue::array();
    for (const PeConfig &config : configs)
        configNames.push(config.name());
    JsonValue cpiMatrix = JsonValue::object();
    cpiMatrix["workloads"] = std::move(workloadNames);
    cpiMatrix["configs"] = std::move(configNames);
    cpiMatrix["cpi"] = std::move(cpi);
    cpiMatrix["cycles"] = std::move(cycles);
    cpiMatrix["status"] = std::move(status);

    JsonValue doc = JsonValue::object();
    doc["schema"] = "tia-sweep/v2";
    doc["sizes"] = opt.small ? "small" : "full";
    doc["cpi_matrix"] = std::move(cpiMatrix);

    std::optional<double> dseWallMs;
    if (opt.dse && all_ok) {
        const DesignSpace dse(
            cpiTableOf(matrix, suite, configs, opt.suiteCpi));
        const auto start = std::chrono::steady_clock::now();
        const std::vector<DesignPoint> points = dse.enumerate(configs);
        const std::vector<DesignPoint> frontier =
            DesignSpace::paretoFrontier(points);
        dseWallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();

        JsonValue dseBlock = JsonValue::object();
        dseBlock["cpi_source"] = opt.suiteCpi ? "suite-average" : "bst";
        dseBlock["grid_points"] = dse.gridSize(configs);
        dseBlock["evaluated"] = points.size();
        JsonValue pareto = JsonValue::array();
        for (const DesignPoint &p : frontier) {
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
        JsonValue cells = JsonValue::object();
        cells["cells"] = matrix.runs.size();
        cells["simulated"] = matrix.simulated;
        cells["derived"] = matrix.derived;
        registry.root()["matrix"] = std::move(cells);
        if (cache)
            registry.root()["cache"] = cache->statsJson();
        fatalIf(!registry.writeTo(opt.metricsPath), "cannot write ",
                opt.metricsPath);
    }

    const std::string json = doc.dump();
    if (opt.outPath.empty()) {
        fatalIf(std::fputs(json.c_str(), stdout) == EOF ||
                    std::fflush(stdout) != 0,
                "cannot write the document to stdout");
    } else {
        fatalIf(!writeFile(opt.outPath, json), "cannot write ",
                opt.outPath);
    }
    std::fprintf(stderr,
                 "tia-sweep: %zu configs x %zu workloads on %u worker "
                 "thread(s), CPI matrix %.1f ms\n",
                 configs.size(), suite.size(), matrix.jobs,
                 matrix.wallMs);
    if (dseWallMs)
        std::fprintf(stderr, "tia-sweep: DSE %.1f ms\n", *dseWallMs);
    std::fprintf(stderr, "tia-sweep: %zu of %zu cells derived\n",
                 matrix.derived, matrix.runs.size());
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
