/**
 * @file
 * tia-metrics-check: validator for tia-metrics/v1 documents.
 *
 *   tia-metrics-check [--json-only] FILE...
 *
 * Parses each file as JSON and, unless --json-only is given, checks
 * the tia-metrics/v1 schema and counter-integrity invariants
 * (obs/metrics.hh): per-PE attribution buckets + in-flight == cycles,
 * CPI null exactly when nothing retired and otherwise equal to
 * cycles/retired, pe_steps_executed equal to the per-PE cycle
 * totals, and — when the optional root "cache" block is
 * present (simcache stats; docs/simcache.md) — hits + misses +
 * coalesced == lookups with verified_hits <= hits, and when the
 * root "matrix" block is present (tia-sweep), simulated + derived +
 * cache hits + coalesced == cells.
 * --json-only reduces the tool to a strict JSON
 * well-formedness check — handy for Chrome trace files, which share
 * no schema with the metrics documents.
 *
 * Exit code 0 when every file passes, 1 otherwise, 2 on usage errors.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/metrics.hh"

int
main(int argc, char **argv)
{
    bool json_only = false;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json-only") {
            json_only = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        std::fprintf(stderr,
                     "usage: tia-metrics-check [--json-only] FILE...\n");
        return 2;
    }

    int failures = 0;
    for (const std::string &path : paths) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "%s: cannot open\n", path.c_str());
            ++failures;
            continue;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        const std::string text = buffer.str();

        std::string error;
        const auto doc = tia::JsonValue::parse(text, &error);
        if (!doc.has_value()) {
            std::fprintf(stderr, "%s: JSON error: %s\n", path.c_str(),
                         error.c_str());
            ++failures;
            continue;
        }
        if (json_only) {
            std::printf("%s: well-formed JSON\n", path.c_str());
            continue;
        }
        const auto problems = tia::validateMetricsDocument(*doc);
        if (problems.empty()) {
            std::printf("%s: ok\n", path.c_str());
            continue;
        }
        for (const std::string &problem : problems)
            std::fprintf(stderr, "%s: %s\n", path.c_str(),
                         problem.c_str());
        ++failures;
    }
    return failures == 0 ? 0 : 1;
}
