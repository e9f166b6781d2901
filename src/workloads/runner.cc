#include "workloads/runner.hh"

#include <algorithm>
#include <functional>

#include "cache/run_cache.hh"
#include "cache/simcache.hh"
#include "core/logging.hh"
#include "exec/pipeline.hh"
#include "obs/metrics.hh"

namespace tia {

namespace {

/** A simulated run and its fabric's KnobWitness. */
struct SimulatedRun
{
    WorkloadRun run;
    KnobWitness witness;
};

/** The always-simulate core of runCycle; cached dispatch wraps this. */
SimulatedRun simulateCycle(const Workload &workload, const PeConfig &uarch,
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

namespace {

/**
 * runCycle's dispatch, with @p compute producing the run: called
 * directly without a cache (or with a trace sink), else memoized under
 * the run's key. @p lookup receives how the cache counted the call;
 * Miss without a cache, where the run is always @p compute's.
 */
WorkloadRun
dispatchCycle(const Workload &workload, const PeConfig &uarch,
              const CycleRunOptions &options,
              const std::function<WorkloadRun()> &compute,
              SimCache::Lookup &lookup)
{
    lookup = SimCache::Lookup::Miss;
    // Tracing is a side effect a cached result cannot replay, so a
    // run with a sink installed always simulates.
    if (options.cache == nullptr || options.trace != nullptr)
        return compute();

    const Digest128 key = workloadRunKey(workload, uarch, options);
    std::string payload;
    for (;;) {
        try {
            payload = options.cache->getOrCompute(
                key,
                [&compute] {
                    WorkloadRun fresh = compute();
                    if (fresh.status == RunStatus::Cancelled)
                        throw CancelledRun{std::move(fresh)};
                    return encodeWorkloadRun(fresh);
                },
                &lookup);
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
    WorkloadRun fresh = compute();
    options.cache->put(key, encodeWorkloadRun(fresh));
    return fresh;
}

} // namespace

WorkloadRun
runCycle(const Workload &workload, const PeConfig &uarch,
         const CycleRunOptions &options)
{
    SimCache::Lookup lookup;
    return dispatchCycle(
        workload, uarch, options,
        [&] { return simulateCycle(workload, uarch, options).run; }, lookup);
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
    run.peStepsExecuted = fabric.stepStats().peStepsExecuted;
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

SimulatedRun
simulateCycle(const Workload &workload, const PeConfig &uarch,
              const CycleRunOptions &options)
{
    CycleExecution execution = executeCycle(workload, uarch, options);
    const KnobWitness witness = execution.fabric->knobWitness();
    return {collectRun(std::move(execution), workload), witness};
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

    if (execution.injector) {
        // Corrupted tokens can escalate to architectural traps
        // (out-of-bounds addresses and the like); for injected runs
        // that is a reportable outcome, not a harness failure.
        try {
            execution.status = fabric.run(options);
        } catch (const FatalError &error) {
            execution.trap = error.what();
        }
    } else {
        execution.status = fabric.run(options);
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

    entry["pe_steps_executed"] = run.peStepsExecuted;

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

namespace {

/** One workload's cells whose configs share shape and +N. */
struct SiblingGroup
{
    std::size_t workload = 0;
    std::vector<std::size_t> configs; ///< In config-list order.
};

/**
 * True when a halted run under @p from, whose fabric's witness is
 * @p witness, is also the run under @p to (same shape and +N): @p to
 * keeps every knob @p from has, and each knob only @p to has changed
 * no decision of the run.
 */
bool
derivable(const PeConfig &from, const KnobWitness &witness,
          const PeConfig &to)
{
    const auto covered = [](bool had, bool wants, bool acted) {
        return had ? wants : !(wants && acted);
    };
    return covered(from.predictPredicates, to.predictPredicates,
                   witness.predictPredicates) &&
           covered(from.effectiveQueueStatus, to.effectiveQueueStatus,
                   witness.effectiveQueueStatus);
}

/** How many cells of a group were simulated and derived. */
struct GroupCounts
{
    std::size_t simulated = 0;
    std::size_t derived = 0;
};

/**
 * Run @p group's cells straight into @p matrix (its runs are sized;
 * each group owns its cells).
 */
GroupCounts
runGroup(const Workload &workload, const std::vector<PeConfig> &configs,
         const SiblingGroup &group, const CycleRunOptions &options,
         CycleMatrix &matrix)
{
    // A witness speaks for a clean, untraced run on the trigger
    // encoder; and verify-hits must re-simulate what it verifies.
    const bool derive =
        (options.faults == nullptr || options.faults->empty()) &&
        options.trace == nullptr && !options.referenceScheduler &&
        (options.cache == nullptr || !options.cache->verifyHits());
    const auto cell = [&](std::size_t c) -> WorkloadRun & {
        return matrix.runs[c * matrix.numWorkloads + group.workload];
    };

    GroupCounts counts;
    // Configs this group simulated to a halt, with their witnesses.
    std::vector<std::pair<std::size_t, KnobWitness>> sources;
    for (const std::size_t c : group.configs) {
        const PeConfig &config = configs[c];
        const WorkloadRun *from = nullptr;
        for (const auto &[source, witness] : sources) {
            if (derivable(configs[source], witness, config)) {
                from = &cell(source);
                break;
            }
        }
        std::optional<KnobWitness> simulated;
        SimCache::Lookup lookup;
        cell(c) = dispatchCycle(
            workload, config, options,
            [&]() -> WorkloadRun {
                if (from)
                    return *from;
                SimulatedRun sim = simulateCycle(workload, config, options);
                simulated = sim.witness;
                return std::move(sim.run);
            },
            lookup);
        if (lookup != SimCache::Lookup::Miss)
            continue;
        if (!simulated) {
            ++counts.derived;
            continue;
        }
        ++counts.simulated;
        if (derive && cell(c).status == RunStatus::Halted)
            sources.emplace_back(c, *simulated);
    }
    return counts;
}

} // namespace

CycleMatrix
runCycleMatrix(const std::vector<Workload> &workloads,
               const std::vector<PeConfig> &configs,
               const CycleRunOptions &options, unsigned jobs)
{
    CycleMatrix matrix;
    matrix.numConfigs = configs.size();
    matrix.numWorkloads = workloads.size();
    const std::size_t cells = configs.size() * workloads.size();
    matrix.runs.resize(cells);

    // The configs sharing shape and +N, in the order of their first
    // members; then the sibling groups, in the row-major order of
    // their first cells (cell i = (c, w) is i = c * numWorkloads + w).
    std::vector<std::vector<std::size_t>> siblings;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const auto same = [&](const std::vector<std::size_t> &members) {
            const PeConfig &first = configs[members.front()];
            return first.shape == configs[c].shape &&
                   first.nestedSpeculation == configs[c].nestedSpeculation;
        };
        const auto found =
            std::find_if(siblings.begin(), siblings.end(), same);
        if (found == siblings.end())
            siblings.push_back({c});
        else
            found->push_back(c);
    }
    std::vector<SiblingGroup> groups;
    for (const std::vector<std::size_t> &members : siblings) {
        for (std::size_t w = 0; w < workloads.size(); ++w)
            groups.push_back({w, members});
    }

    // Each task writes its group's cells in place. The pipeline's
    // fail-fast token is merged into the caller's stop token, so one
    // group's exception cancels its siblings within a few thousand
    // cycles.
    const SweepPipeline pipeline(jobs);
    const PipelineResult result = pipeline.run(
        groups.size(),
        [&](std::size_t g, const StopToken &cancel) {
            CycleRunOptions task = options;
            task.stop = StopToken::anyOf(options.stop, cancel);
            return runGroup(workloads[groups[g].workload], configs,
                            groups[g], task, matrix);
        },
        [&](std::size_t, GroupCounts counts) {
            matrix.simulated += counts.simulated;
            matrix.derived += counts.derived;
        });
    matrix.jobs = result.jobs;
    matrix.wallMs = result.wallMs;
    return matrix;
}

} // namespace tia
