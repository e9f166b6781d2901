/**
 * @file
 * Structured metrics ("tia-metrics/v1"): the machine-readable run
 * summary tia-sim and tia-sweep emit with --metrics, and the schema
 * checker behind tools/tia_metrics_check.cc.
 *
 * Document shape (full schema in docs/observability.md):
 *
 *   {
 *     "schema": "tia-metrics/v1",
 *     "tool": "tia-sim" | "tia-sweep",
 *     "runs": [
 *       {
 *         "uarch": "T|DX +P+Q", "status": "halted", "cycles": N,
 *         "num_pes": N,
 *         "verdict": {"classification": "...", "summary": "..."},
 *         "pe_steps_executed": N,
 *         "pes": [{"pe": i, "in_flight": N, "cpi": R|null,
 *                  "counters": {...}, "cpi_stack": {...}}],
 *         "channels": {"capacity": N, "high_water": [N...]},
 *         "faults": {...}            // injected runs only
 *       }
 *     ]
 *   }
 *
 * Validation enforces the counter-integrity contract: the six
 * attribution buckets plus in-flight instructions sum to the PE's
 * cycles, a null CPI appears exactly when nothing retired, and
 * pe_steps_executed == sum of per-PE cycles holds whenever every PE
 * is reported.
 */

#ifndef TIA_OBS_METRICS_HH
#define TIA_OBS_METRICS_HH

#include <string>
#include <vector>

#include "obs/json.hh"
#include "uarch/counters.hh"

namespace tia {

/** The metrics schema identifier emitted and accepted. */
inline constexpr const char *kMetricsSchema = "tia-metrics/v1";

/**
 * A tia-metrics/v1 document under construction. Thin wrapper over a
 * JsonValue that pins the schema tag and collects runs.
 */
class MetricsRegistry
{
  public:
    explicit MetricsRegistry(const std::string &tool)
    {
        root_ = JsonValue::object();
        root_["schema"] = kMetricsSchema;
        root_["tool"] = tool;
        root_["runs"] = JsonValue::array();
    }

    /** Root document (for extra top-level fields, e.g. "program"). */
    JsonValue &root() { return root_; }

    void addRun(JsonValue run) { root_["runs"].push(std::move(run)); }

    std::string dump() const { return root_.dump(); }

    /** Serialize to @p path; returns false on I/O failure. */
    bool writeTo(const std::string &path) const;

  private:
    JsonValue root_;
};

/** Serialize raw counters (every PerfCounters field). */
JsonValue countersJson(const PerfCounters &counters);

/** Serialize a normalized CPI stack. */
JsonValue cpiStackJson(const CpiStack &stack);

/**
 * Per-PE metrics entry: counters, CPI (null when nothing retired),
 * CPI stack and in-flight instructions at run end.
 */
JsonValue peMetricsJson(unsigned pe, const PerfCounters &counters,
                        unsigned inFlight);

/**
 * Validate a parsed document against the tia-metrics/v1 schema and the
 * counter-integrity invariants. Optional root blocks are checked when
 * present: "cache" (SimCache stats: hits + misses + coalesced ==
 * lookups, verified <= hits), "matrix" (tia-sweep's cells: simulated
 * + derived + cache hits + coalesced == cells) and "server" (tia-serve
 * accounting identities: received == admitted + shed + rejected,
 * admitted == completed + cancelled + failed + active + queue_depth,
 * ordered latency percentiles). A document carrying a "server" block may have
 * an empty "runs" array. Returns human-readable problems; empty means
 * valid.
 */
std::vector<std::string> validateMetricsDocument(const JsonValue &doc);

} // namespace tia

#endif // TIA_OBS_METRICS_HH
