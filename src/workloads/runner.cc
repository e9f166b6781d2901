#include "workloads/runner.hh"

#include "cache/run_cache.hh"
#include "cache/simcache.hh"
#include "core/logging.hh"
#include "exec/pipeline.hh"
#include "obs/metrics.hh"

namespace tia {

namespace {

/** The always-simulate core of runCycle; cached dispatch wraps this. */
WorkloadRun runCycleUncached(const Workload &workload, const PeConfig &uarch,
                             const CycleRunOptions &options);

/**
 * Internal signal used by the cached dispatch path: a computation cut
 * short by a stop token must not be cached, so the compute closure
 * throws the cancelled run out of SimCache::getOrCompute (which caches
 * nothing on a throwing computation) and runCycle catches it.
 */
struct CancelledRun
{
    WorkloadRun run;
};

} // namespace

const char *
faultOutcomeName(FaultOutcome outcome)
{
    switch (outcome) {
      case FaultOutcome::None:
        return "none";
      case FaultOutcome::Masked:
        return "masked";
      case FaultOutcome::Recovered:
        return "recovered";
      case FaultOutcome::Corrupted:
        return "corrupted";
      case FaultOutcome::Trapped:
        return "trapped";
      case FaultOutcome::Hung:
        return "hung";
    }
    return "?";
}

WorkloadRun
runFunctional(const Workload &workload, std::uint64_t max_steps)
{
    FunctionalFabric fabric(workload.config, workload.program);
    workload.preload(fabric.memory());

    WorkloadRun run;
    run.status = fabric.run(max_steps);
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe)
        run.dynamicInstructions.push_back(
            fabric.pe(pe).dynamicInstructions());
    run.worker.retired =
        fabric.pe(workload.workerPe).dynamicInstructions();
    run.worker.predicateWrites =
        fabric.pe(workload.workerPe).predicateWrites();
    if (run.status == RunStatus::Halted)
        run.checkError = workload.check(fabric.memory());
    else
        run.checkError = "run did not complete";
    return run;
}

WorkloadRun
runCycle(const Workload &workload, const PeConfig &uarch,
         const CycleRunOptions &options)
{
    // Tracing is a side effect a cached result cannot replay, so a
    // run with a sink installed always simulates.
    if (options.cache == nullptr || options.trace != nullptr)
        return runCycleUncached(workload, uarch, options);

    const Digest128 key = workloadRunKey(workload, uarch, options);
    std::string payload;
    for (;;) {
        try {
            payload = options.cache->getOrCompute(
                key, [&workload, &uarch, &options] {
                    WorkloadRun fresh =
                        runCycleUncached(workload, uarch, options);
                    if (fresh.status == RunStatus::Cancelled)
                        throw CancelledRun{std::move(fresh)};
                    return encodeWorkloadRun(fresh);
                });
            break;
        } catch (const CancelledRun &cancelled) {
            // Our own cancellation (we were the leader, or our token
            // fired while we waited) is a final answer. A waiter
            // coalesced onto someone else's cancelled leader still has
            // budget: retry, becoming the new leader.
            if (options.stop.stopRequested())
                return cancelled.run;
        }
    }
    if (std::optional<WorkloadRun> run = decodeWorkloadRun(payload))
        return *run;

    // A persisted payload that fails to decode (written by a newer
    // build within the same schema version, or damaged in a way the
    // checksum missed) degrades to a miss: recompute and overwrite.
    options.cache->erase(key);
    WorkloadRun fresh = runCycleUncached(workload, uarch, options);
    options.cache->put(key, encodeWorkloadRun(fresh));
    return fresh;
}

namespace {

/**
 * Post-run extraction: collect the hang diagnosis, counters, memory
 * validation and (for injected runs) the fault-outcome classification
 * from a finished execution.
 */
WorkloadRun
collectRun(CycleExecution execution, const Workload &workload)
{
    CycleFabric &fabric = *execution.fabric;
    const bool trapped = execution.trap.has_value();
    WorkloadRun run;
    run.status = execution.status;
    if (trapped)
        run.checkError = "trapped: " + *execution.trap;

    run.hang = fabric.hangReport();
    run.totalCycles = fabric.now();
    const FabricStepStats steps = fabric.stepStats();
    run.peStepsExecuted = steps.peStepsExecuted;
    run.peStepsSkipped = steps.peStepsSkipped;
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe)
        run.dynamicInstructions.push_back(
            fabric.pe(pe).counters().retired);
    run.worker = fabric.pe(workload.workerPe).counters();
    run.workerInFlight = fabric.pe(workload.workerPe).inFlight();
    run.workerPe = workload.workerPe;
    if (trapped) {
        // checkError already explains the trap.
    } else if (run.status == RunStatus::Halted) {
        run.checkError = workload.check(fabric.memory());
    } else {
        run.checkError = "run did not complete";
    }

    if (execution.injector) {
        run.faultStats = execution.injector->stats();
        std::uint64_t pe_recoveries = 0;
        for (unsigned pe = 0; pe < fabric.numPes(); ++pe)
            pe_recoveries += fabric.pe(pe).counters().faultRecoveries;
        if (trapped) {
            run.faultOutcome = FaultOutcome::Trapped;
        } else if (run.status != RunStatus::Halted) {
            run.faultOutcome = FaultOutcome::Hung;
        } else if (!run.checkError.empty()) {
            run.faultOutcome = FaultOutcome::Corrupted;
        } else if (run.faultStats.totalFired() == 0) {
            run.faultOutcome = FaultOutcome::None;
        } else if (pe_recoveries > 0) {
            run.faultOutcome = FaultOutcome::Recovered;
        } else {
            run.faultOutcome = FaultOutcome::Masked;
        }
    }
    return run;
}

WorkloadRun
runCycleUncached(const Workload &workload, const PeConfig &uarch,
                 const CycleRunOptions &options)
{
    return collectRun(executeCycle(workload, uarch, options), workload);
}

} // namespace

CycleExecution
executeCycle(const Workload &workload, const PeConfig &uarch,
             const CycleRunOptions &options)
{
    CycleExecution execution;
    if (options.faults != nullptr && !options.faults->empty())
        execution.injector = std::make_unique<FaultInjector>(*options.faults);

    execution.fabric = std::make_unique<CycleFabric>(
        workload.config, workload.program, uarch, execution.injector.get());
    CycleFabric &fabric = *execution.fabric;
    workload.preload(fabric.memory());
    if (options.trace != nullptr)
        fabric.setTraceSink(options.trace, options.traceLevel);
    if (options.referenceScheduler)
        fabric.setUseReferenceScheduler(true);

    const FabricRunOptions fabric_options{options.maxCycles,
                                          options.quiescenceWindow,
                                          options.stop};
    if (execution.injector) {
        // Corrupted tokens can escalate to architectural traps
        // (out-of-bounds addresses and the like); for injected runs
        // that is a reportable outcome, not a harness failure.
        try {
            execution.status = fabric.run(fabric_options);
        } catch (const FatalError &error) {
            execution.trap = error.what();
        }
    } else {
        execution.status = fabric.run(fabric_options);
    }
    return execution;
}

JsonValue
workloadRunMetrics(const WorkloadRun &run, const PeConfig &uarch,
                   const std::string &workload)
{
    JsonValue entry = JsonValue::object();
    entry["workload"] = workload;
    entry["uarch"] = uarch.name();
    entry["status"] = run.ok() ? "ok" : runStatusName(run.status);
    if (!run.checkError.empty())
        entry["check_error"] = run.checkError;
    entry["cycles"] = run.totalCycles;
    entry["num_pes"] =
        static_cast<std::uint64_t>(run.dynamicInstructions.size());

    JsonValue verdict = JsonValue::object();
    verdict["classification"] = runStatusName(run.hang.classification);
    verdict["summary"] = run.hang.summary;
    entry["verdict"] = std::move(verdict);

    entry["sleep"] =
        sleepMetricsJson(run.peStepsExecuted, run.peStepsSkipped);

    JsonValue pes = JsonValue::array();
    pes.push(peMetricsJson(run.workerPe, run.worker, run.workerInFlight));
    entry["pes"] = std::move(pes);

    if (run.faultOutcome != FaultOutcome::None ||
        run.faultStats.totalFired() != 0) {
        JsonValue faults = JsonValue::object();
        faults["outcome"] = faultOutcomeName(run.faultOutcome);
        entry["faults"] = faultStatsJson(run.faultStats, std::move(faults));
    }
    return entry;
}

JsonValue
faultStatsJson(const FaultStats &stats, JsonValue block)
{
    block["total_fired"] = stats.totalFired();
    JsonValue lines = JsonValue::array();
    for (const auto &line : stats.lines) {
        JsonValue item = JsonValue::object();
        item["name"] = line.name;
        item["fired"] = line.fired;
        item["declined"] = line.declined;
        lines.push(std::move(item));
    }
    block["lines"] = std::move(lines);
    return block;
}

CycleMatrix
runCycleMatrix(const std::vector<Workload> &workloads,
               const std::vector<PeConfig> &configs,
               const CycleRunOptions &options, unsigned jobs,
               const CycleMatrixSink &sink)
{
    CycleMatrix matrix;
    matrix.numConfigs = configs.size();
    matrix.numWorkloads = workloads.size();
    matrix.runs.reserve(configs.size() * workloads.size());

    // Cell i = (c, w) in row-major order. The pipeline's fail-fast
    // token is merged into the caller's stop token, so one cell's
    // exception cancels its siblings within a few thousand cycles.
    const SweepPipeline pipeline(jobs);
    const PipelineResult result = pipeline.run(
        configs.size() * workloads.size(),
        [&](std::size_t i, const StopToken &cancel) {
            CycleRunOptions task = options;
            task.stop = StopToken::anyOf(options.stop, cancel);
            return runCycle(workloads[i % workloads.size()],
                            configs[i / workloads.size()], task);
        },
        [&](std::size_t i, WorkloadRun &&run) {
            matrix.runs.push_back(std::move(run));
            if (sink) {
                sink(i / workloads.size(), i % workloads.size(),
                     matrix.runs.back());
            }
        });
    matrix.jobs = result.jobs;
    matrix.wallMs = result.wallMs;
    return matrix;
}

} // namespace tia
