/**
 * @file
 * The server's fixed table of named workloads and analyses.
 *
 * Clients name what they want run ("bst", "gcd", ...) and which
 * analyses to apply to the finished run ("cpi", "verdict", ...), and
 * the server owns the factories. That keeps the request surface to
 * strings + sizes — no client ever ships a program over the wire for
 * the batch paths.
 *
 * The table carries the Table 3 suite plus `spin`, a deliberately
 * non-halting single-PE loop: it exists so operators and the torture
 * tests can exercise the deadline / livelock / cancel paths of a live
 * server on demand (a watchdog canary), and it is the reason
 * `simulate` accepts a `max_cycles` override.
 */

#ifndef TIA_SERVE_REGISTRY_HH
#define TIA_SERVE_REGISTRY_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace tia {

class ServeRegistry
{
  public:
    /** Builds a workload instance at the requested sizes. */
    using WorkloadFactory =
        std::function<Workload(const WorkloadSizes &)>;
    /** Renders one registered analysis of a finished run. */
    using Analysis = std::function<JsonValue(const WorkloadRun &)>;

    /** Lookup (nullptr when unknown). */
    const WorkloadFactory *workload(const std::string &name) const;
    const Analysis *analysis(const std::string &name) const;

    std::vector<std::string> workloadNames() const;
    std::vector<std::string> analysisNames() const;

    /** Table 3 suite + `spin` canary + the standard analyses. */
    static ServeRegistry builtin();

  private:
    std::map<std::string, WorkloadFactory> workloads_;
    std::map<std::string, Analysis> analyses_;
};

} // namespace tia

#endif // TIA_SERVE_REGISTRY_HH
