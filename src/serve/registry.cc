#include "serve/registry.hh"

#include "core/assembler.hh"
#include "obs/metrics.hh"
#include "sim/fabric_config.hh"
#include "uarch/counters.hh"

namespace tia {

namespace {

/**
 * `spin`: a single-PE register loop that never halts and never moves a
 * token, so the watchdog classifies a budget-exhausted run as a
 * livelock. Sizes are ignored. Used by operators and torture tests to
 * provoke the deadline / hang / cancellation paths on demand.
 */
Workload
makeSpin(const WorkloadSizes &)
{
    Workload w;
    w.name = "spin";
    w.description = "Non-halting canary loop (provokes livelock / "
                    "deadline handling; never completes)";
    w.program = assemble(
        "when %p == XXXXXXX0: add %r0, %r0, #1; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: add %r1, %r1, #1; set %p = ZZZZZZZ0;\n");
    FabricBuilder builder(w.program.params, 1);
    w.config = builder.build();
    w.workerPe = 0;
    w.check = [](const Memory &) { return std::string(); };
    return w;
}

} // namespace

const ServeRegistry::WorkloadFactory *
ServeRegistry::workload(const std::string &name) const
{
    const auto it = workloads_.find(name);
    return it == workloads_.end() ? nullptr : &it->second;
}

const ServeRegistry::Analysis *
ServeRegistry::analysis(const std::string &name) const
{
    const auto it = analyses_.find(name);
    return it == analyses_.end() ? nullptr : &it->second;
}

std::vector<std::string>
ServeRegistry::workloadNames() const
{
    std::vector<std::string> names;
    names.reserve(workloads_.size());
    for (const auto &[name, make] : workloads_)
        names.push_back(name);
    return names;
}

std::vector<std::string>
ServeRegistry::analysisNames() const
{
    std::vector<std::string> names;
    names.reserve(analyses_.size());
    for (const auto &[name, analyze] : analyses_)
        names.push_back(name);
    return names;
}

ServeRegistry
ServeRegistry::builtin()
{
    ServeRegistry registry;
    registry.workloads_ = {
        {"bst", makeBst},
        {"gcd", makeGcd},
        {"mean", makeMean},
        {"arg_max", makeArgMax},
        {"dot_product", makeDotProduct},
        {"filter", makeFilter},
        {"merge", makeMerge},
        {"stream", makeStream},
        {"string_search", makeStringSearch},
        {"udiv", makeUdiv},
        {"spin", makeSpin},
    };

    registry.analyses_ = {
        {"cpi",
         [](const WorkloadRun &run) {
             JsonValue out = JsonValue::object();
             out["cpi"] = run.worker.cpi(); // null when nothing retired
             out["cycles"] = run.totalCycles;
             out["retired"] = run.worker.retired;
             return out;
         }},
        {"counters",
         [](const WorkloadRun &run) { return countersJson(run.worker); }},
        {"cpi_stack",
         [](const WorkloadRun &run) {
             return cpiStackJson(cpiStack(run.worker));
         }},
        {"verdict",
         [](const WorkloadRun &run) {
             JsonValue out = JsonValue::object();
             out["classification"] =
                 runStatusName(run.hang.classification);
             out["summary"] = run.hang.summary;
             return out;
         }},
        {"sleep",
         [](const WorkloadRun &run) {
             return sleepMetricsJson(run.peStepsExecuted,
                                     run.peStepsSkipped);
         }},
    };
    return registry;
}

} // namespace tia
