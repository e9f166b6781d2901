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
 *   --configs X  "all" (default), "fig5", or a comma-separated list
 *                of microarchitecture names
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

#include <cctype>
#include <cmath>
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
    bool incremental = false; ///< Stream frontier updates + early exit.
    std::size_t stableWindow = 500;
    std::string configs = "all";
    std::string outPath;
    std::string metricsPath;
    std::string cachePath;
    bool cacheVerify = false;
};

std::vector<PeConfig>
parseConfigList(const std::string &text)
{
    if (text == "all")
        return allConfigs();
    if (text == "fig5")
        return figure5Configs();
    std::vector<PeConfig> configs;
    std::string current;
    auto flush = [&] {
        const auto uarch = parseConfigName(current);
        fatalIf(!uarch.has_value(), "unknown microarchitecture \"",
                current, "\" in --configs");
        configs.push_back(*uarch);
        current.clear();
    };
    for (char c : text) {
        if (c == ',') {
            flush();
        } else {
            current += c;
        }
    }
    flush();
    return configs;
}

/** Append a JSON-quoted string (names here never need escaping). */
void
jsonString(std::string &out, const std::string &value)
{
    out += '"';
    out += value;
    out += '"';
}

void
jsonNumber(std::string &out, double value)
{
    // JSON has no NaN/Infinity literal; a PE that retired nothing has
    // CPI NaN (uarch/counters.hh) and serializes as null.
    if (!std::isfinite(value)) {
        out += "null";
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    out += buf;
}

int
run(const Options &opt)
{
    const WorkloadSizes sizes =
        opt.small ? WorkloadSizes::small() : WorkloadSizes::full();
    const std::vector<PeConfig> configs = parseConfigList(opt.configs);
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
    std::vector<std::string> cpiRows(configs.size());
    std::vector<std::string> cycleRows(configs.size());
    std::vector<std::string> statusRows(configs.size());

    const auto addCell = [&](std::size_t c, std::size_t w,
                             const WorkloadRun &cell) {
        std::string &cpiRow = cpiRows[c];
        if (w)
            cpiRow += ", ";
        jsonNumber(cpiRow, cell.worker.cpi());
        std::string &cycleRow = cycleRows[c];
        if (w)
            cycleRow += ", ";
        cycleRow += std::to_string(cell.totalCycles);
        std::string &statusRow = statusRows[c];
        if (w)
            statusRow += ", ";
        jsonString(statusRow,
                   cell.ok() ? "ok" : runStatusName(cell.status));
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

    std::string json;
    json += "{\n";
    json += "  \"schema\": \"tia-sweep/v1\",\n";
    json += "  \"jobs\": " + std::to_string(matrix.jobs) + ",\n";
    json += std::string("  \"sizes\": ") +
            (opt.small ? "\"small\"" : "\"full\"") + ",\n";

    json += "  \"cpi_matrix\": {\n";
    json += "    \"wall_ms\": ";
    jsonNumber(json, matrix.wallMs);
    json += ",\n    \"workloads\": [";
    for (std::size_t w = 0; w < suite.size(); ++w) {
        if (w)
            json += ", ";
        jsonString(json, suite[w].name);
    }
    json += "],\n    \"configs\": [";
    for (std::size_t c = 0; c < configs.size(); ++c) {
        if (c)
            json += ", ";
        jsonString(json, configs[c].name());
    }
    // Row-major [config][workload] arrays, rows parallel to "configs".
    json += "],\n    \"cpi\": [\n";
    for (std::size_t c = 0; c < configs.size(); ++c) {
        json += "      [" + cpiRows[c];
        json += c + 1 < configs.size() ? "],\n" : "]\n";
    }
    json += "    ],\n    \"cycles\": [\n";
    for (std::size_t c = 0; c < configs.size(); ++c) {
        json += "      [" + cycleRows[c];
        json += c + 1 < configs.size() ? "],\n" : "]\n";
    }
    json += "    ],\n    \"status\": [\n";
    for (std::size_t c = 0; c < configs.size(); ++c) {
        json += "      [" + statusRows[c];
        json += c + 1 < configs.size() ? "],\n" : "]\n";
    }
    json += "    ]\n  }";

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
        const std::vector<DesignPoint> &frontier = stream.frontier;

        json += ",\n  \"dse\": {\n";
        json += std::string("    \"cpi_source\": ") +
                (opt.suiteCpi ? "\"suite-average\"" : "\"bst\"") + ",\n";
        json += "    \"wall_ms\": ";
        jsonNumber(json, stream.wallMs);
        json += ",\n    \"grid_points\": " +
                std::to_string(dse.gridSize(configs)) + ",\n";
        if (opt.incremental) {
            json += "    \"incremental\": true,\n"
                    "    \"stable_window\": " +
                    std::to_string(opt.stableWindow) +
                    ",\n    \"early_exit\": " +
                    (stream.earlyExit ? "true" : "false") +
                    ",\n    \"frontier_updates\": " +
                    std::to_string(stream.frontierUpdates) +
                    ",\n    \"shards_completed\": " +
                    std::to_string(stream.shardsCompleted) +
                    ",\n    \"shards_total\": " +
                    std::to_string(stream.shardsTotal) + ",\n";
        }
        json += "    \"evaluated\": " +
                std::to_string(stream.points.size()) + ",\n";
        json += "    \"pareto\": [\n";
        for (std::size_t i = 0; i < frontier.size(); ++i) {
            const DesignPoint &p = frontier[i];
            json += "      {\"config\": ";
            jsonString(json, p.config.name());
            json += ", \"vt\": ";
            jsonString(json, vtName(p.vt));
            json += ", \"vdd\": ";
            jsonNumber(json, p.vdd);
            json += ", \"freq_mhz\": ";
            jsonNumber(json, p.freqMhz);
            json += ", \"max_freq_mhz\": ";
            jsonNumber(json, p.maxFreqMhz);
            json += ", \"cpi\": ";
            jsonNumber(json, p.cpi);
            json += ", \"ns_per_ins\": ";
            jsonNumber(json, p.nsPerInstruction);
            json += ", \"pj_per_ins\": ";
            jsonNumber(json, p.pjPerInstruction);
            json += ", \"area_um2\": ";
            jsonNumber(json, p.areaUm2);
            json += ", \"power_mw\": ";
            jsonNumber(json, p.powerMw);
            json += ", \"power_density_mw_mm2\": ";
            jsonNumber(json, p.powerDensity());
            json += ", \"edp\": ";
            jsonNumber(json, p.edp());
            json += i + 1 < frontier.size() ? "},\n" : "}\n";
        }
        json += "    ]\n  }";
    }
    json += "\n}\n";

    if (!opt.metricsPath.empty()) {
        registry.root()["sizes"] = opt.small ? "small" : "full";
        if (cache)
            registry.root()["cache"] = cache->statsJson();
        registry.root()["sweep"] = sweepMetricsJson(matrix);
        fatalIf(!registry.writeTo(opt.metricsPath), "cannot write ",
                opt.metricsPath);
    }

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
                const std::string text = next();
                for (char c : text) {
                    fatalIf(!std::isdigit(
                                static_cast<unsigned char>(c)) ||
                                text.empty(),
                            "--stable-window wants a non-negative "
                            "integer, got \"",
                            text, "\"");
                }
                fatalIf(text.empty(), "--stable-window wants a "
                                      "non-negative integer");
                opt.stableWindow =
                    static_cast<std::size_t>(std::stoull(text));
            } else if (arg == "--configs") {
                opt.configs = next();
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
