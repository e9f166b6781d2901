/**
 * @file
 * tia-sweep: batch sweep driver emitting machine-readable JSON.
 *
 * Runs the full uarch x workload CPI matrix (the Figure 5 product)
 * and the VLSI design-space exploration (Figures 6-8) on the streaming
 * sweep pipeline (exec/pipeline.hh): JSON row assembly and metrics
 * entries are built in the pipeline's in-order sink while later cells
 * are still simulating, and the cache save overlaps the DSE phase.
 * Emits one JSON document with the matrix, the attempted/evaluated
 * design-point counts and the energy-delay Pareto frontier. Results
 * are bit-identical for any --jobs value and for --flat vs the
 * pipeline (asserted by the ctest fixtures); the wall_ms fields are
 * the measured sweep times (the speedup evidence on multi-core hosts).
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
 *   --flat       run on the flat SweepEngine::map barrier instead of
 *                the pipeline (reference implementation; the output
 *                must be byte-identical modulo wall_ms)
 *   --incremental  overlap the DSE with the CPI matrix: each config's
 *                design shards are enumerated in the matrix sink as
 *                soon as its CPI lands (while later rows simulate),
 *                streaming Pareto-frontier updates to stderr, and the
 *                enumeration stops once the frontier has been stable
 *                for --stable-window consecutive design points. The
 *                "dse" block gains incremental/early-exit fields plus
 *                "overlapped": true and "dse_phase_ms", the residual
 *                post-matrix DSE time (the overlap win: wall_ms worth
 *                of enumeration now hides inside the matrix phase)
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
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/simcache.hh"
#include "core/logging.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "sim/functional.hh"
#include "vlsi/dse.hh"
#include "vlsi/pareto.hh"
#include "vlsi/timing.hh"
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
    bool flat = false;        ///< Reference flat engine, no pipeline.
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
    // the pipeline's in-order sink while later cells simulate. The
    // --flat path feeds the same builder in the same row-major order
    // after the barrier, so the two outputs are byte-identical.
    MetricsRegistry registry("tia-sweep");
    bool all_ok = true;
    std::vector<std::string> cpiRows(configs.size());
    std::vector<std::string> cycleRows(configs.size());
    std::vector<std::string> statusRows(configs.size());

    // Overlapped DSE (--incremental on the pipeline): each config's
    // design shards are enumerated right here in the sink once its
    // driving CPI lands, so the DSE's compute hides inside the matrix
    // phase instead of trailing it. Shards run in the same
    // config-major order as DesignSpace::enumerateStreamed, so the
    // frontier is identical; the work is speculative and discarded if
    // any cell fails (no "dse" block is emitted then anyway).
    const bool overlapDse = opt.dse && !opt.flat && opt.incremental;
    struct OverlapState
    {
        IncrementalPareto pareto;
        std::size_t sinceChange = 0;
        std::size_t evaluated = 0;
        std::size_t shardsCompleted = 0;
        bool stopped = false;   ///< stableWindow reached.
        double computeMs = 0.0; ///< Enumeration time inside the sink.
    } overlap;
    std::size_t bstIndex = suite.size();
    for (std::size_t w = 0; w < suite.size(); ++w) {
        if (suite[w].name == "bst")
            bstIndex = w;
    }
    std::vector<double> rowCpiSum(configs.size(), 0.0);
    std::vector<std::uint8_t> rowOk(configs.size(), 1);
    const auto enumerateConfig = [&](const PeConfig &config, double cpi) {
        if (overlap.stopped)
            return;
        const auto start = std::chrono::steady_clock::now();
        const DesignSpace space(CpiTable{{config.name(), cpi}});
        for (VtClass vt :
             {VtClass::Low, VtClass::Standard, VtClass::High}) {
            for (double vdd : DesignSpace::supplyGrid(vt)) {
                if (overlap.stopped)
                    break;
                const double fmax =
                    maxFrequencyMhz(config, vdd, vt, space.tech());
                bool changed = false;
                for (double f : space.frequencyGridMhz(vt, vdd)) {
                    if (f > fmax)
                        break;
                    if (overlap.pareto.add(
                            space.evaluate(config, vt, vdd, f))) {
                        changed = true;
                        overlap.sinceChange = 0;
                    } else {
                        ++overlap.sinceChange;
                    }
                    ++overlap.evaluated;
                }
                ++overlap.shardsCompleted;
                if (changed) {
                    std::fprintf(stderr,
                                 "tia-sweep: frontier %zu points "
                                 "after %zu design points\n",
                                 overlap.pareto.frontier().size(),
                                 overlap.pareto.pointsSeen());
                }
                if (opt.stableWindow != 0 &&
                    overlap.sinceChange >= opt.stableWindow)
                    overlap.stopped = true;
            }
        }
        overlap.computeMs +=
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
    };

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
        if (!overlapDse)
            return;
        rowOk[c] = rowOk[c] && cell.ok();
        if (opt.suiteCpi) {
            rowCpiSum[c] += cell.worker.cpi();
            if (w + 1 == suite.size() && rowOk[c]) {
                enumerateConfig(configs[c],
                                rowCpiSum[c] /
                                    static_cast<double>(suite.size()));
            }
        } else if (w == bstIndex && cell.ok()) {
            enumerateConfig(configs[c], cell.worker.cpi());
        }
    };

    CycleMatrix matrix;
    if (opt.flat) {
        matrix = runCycleMatrixFlat(suite, configs, run_options, jobs);
        for (std::size_t c = 0; c < configs.size(); ++c) {
            for (std::size_t w = 0; w < suite.size(); ++w)
                addCell(c, w, matrix.run(c, w));
        }
    } else {
        matrix = runCycleMatrixStreamed(suite, configs, run_options,
                                        jobs, addCell);
    }

    // Kick the cache save off in the background so its serialization
    // and fsync I/O overlap the DSE phase (a fully warm cache skips
    // the save entirely — see SimCache::save). Joined before exit.
    const bool dsePhase = opt.dse && all_ok;
    bool save_ok = true;
    std::string save_error;
    std::thread cacheSaver;
    // Joins the saver even if something below throws (a joinable
    // std::thread destructor would terminate the process).
    struct Joiner
    {
        std::thread &t;
        ~Joiner()
        {
            if (t.joinable())
                t.join();
        }
    } joiner{cacheSaver};
    if (cache) {
        const auto saveCache = [&] {
            save_ok = cache->save(opt.cachePath, &save_error);
        };
        if (dsePhase) {
            cacheSaver = std::thread(saveCache);
        } else {
            saveCache();
        }
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

    if (dsePhase) {
        // Residual post-matrix DSE time: with the overlapped sink this
        // is table assembly + frontier retrieval only — the
        // enumeration itself (wall_ms) already ran during the matrix.
        const auto phase_start = std::chrono::steady_clock::now();
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
        std::vector<DesignPoint> frontier;
        double dse_ms = 0.0;
        std::size_t evaluated = 0;
        std::string incrementalJson;
        if (opt.flat) {
            const auto dse_start = std::chrono::steady_clock::now();
            const auto points = dse.enumerateParallel(jobs, configs);
            dse_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - dse_start)
                         .count();
            frontier = DesignSpace::paretoFrontier(points);
            evaluated = points.size();
        } else if (overlapDse) {
            frontier = overlap.pareto.frontier();
            dse_ms = overlap.computeMs;
            evaluated = overlap.evaluated;
            std::size_t shards_per_config = 0;
            for (VtClass vt :
                 {VtClass::Low, VtClass::Standard, VtClass::High})
                shards_per_config += DesignSpace::supplyGrid(vt).size();
            const double phase_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - phase_start)
                    .count();
            incrementalJson +=
                "    \"incremental\": true,\n    \"overlapped\": "
                "true,\n    \"dse_phase_ms\": ";
            jsonNumber(incrementalJson, phase_ms);
            incrementalJson +=
                ",\n    \"stable_window\": " +
                std::to_string(opt.stableWindow) +
                ",\n    \"early_exit\": " +
                (overlap.stopped ? "true" : "false") +
                ",\n    \"frontier_updates\": " +
                std::to_string(overlap.pareto.updates()) +
                ",\n    \"shards_completed\": " +
                std::to_string(overlap.shardsCompleted) +
                ",\n    \"shards_total\": " +
                std::to_string(shards_per_config * configs.size()) +
                ",\n";
        } else {
            DseStreamResult stream =
                dse.enumerateStreamed(jobs, configs, {});
            frontier = std::move(stream.frontier);
            dse_ms = stream.wallMs;
            evaluated = stream.points.size();
        }

        json += ",\n  \"dse\": {\n";
        json += std::string("    \"cpi_source\": ") +
                (opt.suiteCpi ? "\"suite-average\"" : "\"bst\"") + ",\n";
        json += "    \"wall_ms\": ";
        jsonNumber(json, dse_ms);
        json += ",\n    \"grid_points\": " +
                std::to_string(dse.gridSize(configs)) + ",\n";
        json += incrementalJson;
        json += "    \"evaluated\": " + std::to_string(evaluated) +
                ",\n";
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

    if (cacheSaver.joinable())
        cacheSaver.join();
    fatalIf(!save_ok, "cannot save cache: ", save_error);

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
            } else if (arg == "--flat") {
                opt.flat = true;
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
