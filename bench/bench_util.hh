/**
 * @file
 * Shared helpers for the table/figure regeneration binaries.
 *
 * Each bench prints the rows/series of one paper table or figure.
 * Absolute values come from our simulator + analytical VLSI model; the
 * point of comparison with the paper is the *shape* (who wins, by what
 * factor, where crossovers fall) — see EXPERIMENTS.md.
 */

#ifndef TIA_BENCH_BENCH_UTIL_HH
#define TIA_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>

#include "cache/simcache.hh"
#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace tia::bench {

/**
 * Workload sizes for bench runs: paper-scale by default; set
 * TIA_BENCH_SMALL=1 for a quick smoke pass.
 */
inline WorkloadSizes
benchSizes()
{
    const char *small = std::getenv("TIA_BENCH_SMALL");
    if (small != nullptr && std::string(small) == "1")
        return WorkloadSizes::small();
    return WorkloadSizes::full();
}

/**
 * Sweep worker threads for bench runs: hardware concurrency by
 * default; set TIA_BENCH_JOBS=N to pin (N=1 forces the serial
 * reference loop). Results are identical either way.
 */
inline unsigned
benchJobs()
{
    const char *jobs = std::getenv("TIA_BENCH_JOBS");
    if (jobs != nullptr)
        return static_cast<unsigned>(std::strtoul(jobs, nullptr, 10));
    return 0; // SweepPipeline: hardware concurrency
}

/**
 * Optional result cache for bench runs: set TIA_BENCH_CACHE=PATH to
 * load a persistent warm tier from PATH, memoize every cycle run, and
 * save back on destruction (docs/simcache.md). Unset (the default)
 * disables caching entirely. Lets the fig5/fig6/fig8 drivers — which
 * all sweep the same uarch x workload product — share one warm tier
 * instead of each re-simulating it.
 */
class BenchCache
{
  public:
    BenchCache()
    {
        const char *path = std::getenv("TIA_BENCH_CACHE");
        if (path == nullptr || *path == '\0')
            return;
        path_ = path;
        cache_.emplace();
        std::string error;
        if (!cache_->load(path_, &error) || !error.empty())
            std::fprintf(stderr, "bench cache: %s\n", error.c_str());
    }

    ~BenchCache()
    {
        if (!cache_)
            return;
        std::string error;
        if (!cache_->save(path_, &error))
            std::fprintf(stderr, "bench cache: cannot save: %s\n",
                         error.c_str());
        std::fprintf(stderr, "bench %s\n",
                     cache_->statsSummary().c_str());
    }

    BenchCache(const BenchCache &) = delete;
    BenchCache &operator=(const BenchCache &) = delete;

    /** nullptr when TIA_BENCH_CACHE is unset. */
    SimCache *get() { return cache_ ? &*cache_ : nullptr; }

    /** Run options with the cache (if any) installed. */
    CycleRunOptions
    options()
    {
        CycleRunOptions run_options;
        run_options.cache = get();
        return run_options;
    }

  private:
    std::string path_;
    std::optional<SimCache> cache_;
};

#ifdef BENCHMARK_BENCHMARK_H_

/**
 * How the google-benchmark *library* was compiled ("release" or
 * "debug"). The library bakes its own NDEBUG state into
 * JSONReporter::ReportContext as "library_build_type", so rendering an
 * empty context and parsing that key recovers it at runtime — there is
 * no direct API. Distro packages ship debug-assert builds surprisingly
 * often, and a debug library skews every timing it brackets.
 */
inline std::string
benchmarkLibraryBuildType()
{
    std::ostringstream json;
    benchmark::JSONReporter reporter;
    reporter.SetOutputStream(&json);
    reporter.SetErrorStream(&json);
    reporter.ReportContext(benchmark::BenchmarkReporter::Context());
    const std::string text = json.str();
    const std::string key = "\"library_build_type\": \"";
    const auto pos = text.find(key);
    if (pos == std::string::npos)
        return "unknown";
    const auto start = pos + key.size();
    const auto end = text.find('"', start);
    if (end == std::string::npos)
        return "unknown";
    return text.substr(start, end - start);
}

/**
 * Cross-check the benchmark library's build type against this
 * project's: warn on stderr and tag the emitted context
 * ("build_type_mismatch") on disagreement, so a baseline produced
 * against a debug library is visible in BENCH_throughput.json at
 * review time. Call after benchmark::Initialize (the context needs the
 * executable name), before RunSpecifiedBenchmarks.
 */
inline void
checkBenchmarkBuildType()
{
#ifdef NDEBUG
    const std::string project = "release";
#else
    const std::string project = "debug";
#endif
    const std::string library = benchmarkLibraryBuildType();
    benchmark::AddCustomContext("project_build_type", project);
    if (library != project) {
        std::fprintf(
            stderr,
            "bench: WARNING: google-benchmark library is a %s build "
            "but this project is a %s build; timings bracketed by "
            "library code are skewed. Configure with "
            "-DTIA_BENCHMARK_SOURCE_DIR=<benchmark checkout> to build "
            "the library with the project's flags.\n",
            library.c_str(), project.c_str());
        benchmark::AddCustomContext("build_type_mismatch",
                                    "library=" + library +
                                        " project=" + project);
    }
}

#endif // BENCHMARK_BENCHMARK_H_

/** Print a banner naming the reproduced table/figure. */
inline void
banner(const char *what, const char *paper_summary)
{
    std::printf("==============================================================================\n");
    std::printf("%s\n", what);
    std::printf("Paper reference: %s\n", paper_summary);
    std::printf("==============================================================================\n");
}

} // namespace tia::bench

#endif // TIA_BENCH_BENCH_UTIL_HH
