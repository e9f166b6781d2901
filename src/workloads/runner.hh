/**
 * @file
 * Convenience runners: execute a Workload on the functional or
 * cycle-accurate fabric, validate the memory image, and collect the
 * worker PE's counters (the figures the paper reports come from "the
 * designated worker PE", Table 3).
 *
 * runCycle optionally runs under a FaultPlan, and every injected run
 * is cross-checked against the workload's golden model: the result is
 * characterized as masked / recovered / corrupted / trapped / hung, so
 * pipeline variants can prove how they behave when hazards are
 * provoked.
 */

#ifndef TIA_WORKLOADS_RUNNER_HH
#define TIA_WORKLOADS_RUNNER_HH

#include <cstddef>
#include <memory>
#include <optional>

#include "exec/stop_token.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "sim/fault.hh"
#include "sim/functional.hh"
#include "sim/hang_diagnosis.hh"
#include "uarch/config.hh"
#include "uarch/counters.hh"
#include "uarch/cycle_fabric.hh"
#include "workloads/workload.hh"

namespace tia {

class SimCache; // cache/simcache.hh

/** How an injected run fared against the golden model. */
enum class FaultOutcome
{
    None,      ///< No faults requested (or none fired).
    Masked,    ///< Faults fired; the architecture absorbed them silently.
    Recovered, ///< Faults fired and were repaired by recovery machinery.
    Corrupted, ///< The run completed but the memory image is wrong.
    Trapped,   ///< A fault escalated to an architectural trap (fatal).
    Hung,      ///< The run deadlocked, livelocked, or timed out.
};

/** Human-readable name for a FaultOutcome. */
const char *faultOutcomeName(FaultOutcome outcome);

/**
 * Options for runCycle: the fabric's run budget (maxCycles,
 * quiescenceWindow, stop; FabricRunOptions), passed to
 * CycleFabric::run unchanged, plus what runCycle adds around the run.
 *
 * A run cut short by @ref stop returns status RunStatus::Cancelled and
 * is never cached — and a caller coalesced onto a leader whose run was
 * cancelled retries the computation itself unless its own token has
 * also fired, so one client's deadline cannot fail another client's
 * request. The token is not part of the cache key.
 */
struct CycleRunOptions : FabricRunOptions
{
    /**
     * Fault plan to inject (non-owning; nullptr = clean run). An
     * injected run is classified against the golden model into
     * WorkloadRun::faultOutcome.
     */
    const FaultPlan *faults = nullptr;
    /** Trace sink installed on the fabric (non-owning; nullptr = off). */
    TraceSink *trace = nullptr;
    /** Trace granularity when @ref trace is set (see obs/trace.hh). */
    TraceLevel traceLevel = TraceLevel::Events;
    /**
     * Resolve triggers through the virtual QueueStatusView reference
     * scheduler instead of the trigger encoder (bit-identical results;
     * exists so tests and tools can cross-check the two).
     */
    bool referenceScheduler = false;
    /**
     * Content-addressed result cache (non-owning; nullptr = off). When
     * set, runCycle memoizes its WorkloadRun under a digest of every
     * input (cache/run_cache.hh) with single-flight dedup across
     * concurrent sweep jobs. Ignored when @ref trace is set — tracing
     * is a side effect a cached result cannot replay.
     */
    SimCache *cache = nullptr;
};

/** Result of one workload execution. */
struct WorkloadRun
{
    RunStatus status = RunStatus::StepLimit;
    /** Empty when the golden model validated the memory image. */
    std::string checkError;
    /** Worker PE counters (cycle runs; functional fills a subset). */
    PerfCounters worker;
    /** Worker PE in-flight instructions at run end (cycle runs). */
    std::uint64_t workerInFlight = 0;
    /** Index of the worker PE the counters above belong to. */
    unsigned workerPe = 0;
    /** Dynamic instructions per PE. */
    std::vector<std::uint64_t> dynamicInstructions;
    /** Total cycles simulated (cycle runs). */
    Cycle totalCycles = 0;
    /** Hang diagnosis for cycle runs (how the run ended). */
    HangReport hang;
    /** Outcome classification for injected runs. */
    FaultOutcome faultOutcome = FaultOutcome::None;
    /** Per-event injection counts for injected runs. */
    FaultStats faultStats;
    /**
     * Host-side: PE steps executed (cycle runs), one per unhalted PE
     * per cycle.
     */
    std::uint64_t peStepsExecuted = 0;
    /**
     * Always 0: the simulator resolves triggers afresh every cycle and
     * keeps no resolution accounting, and every unhalted PE steps every
     * cycle. No storage and no codec bytes; these exist only because
     * perfbench/src/layers.cc still reads them, and go when ROADMAP
     * item 1 retires uarch.resolution_skip_frac and
     * uarch.sleep_skip_frac.
     */
    static constexpr std::uint64_t resolutionSkips = 0;
    static constexpr std::uint64_t resolutionFulls = 0;
    static constexpr std::uint64_t peStepsSkipped = 0;

    bool ok() const { return status == RunStatus::Halted &&
                             checkError.empty(); }

    /** Field-wise equality (cache round-trip and verify tests). */
    bool operator==(const WorkloadRun &) const = default;
};

/**
 * A finished cycle-accurate execution, before any result extraction:
 * the fabric as the run left it, for callers that read more than a
 * WorkloadRun keeps (every PE's counters, channel high-water marks,
 * the memory image).
 */
struct CycleExecution
{
    /** The injector the fabric ran under (nullptr on a clean run).
     *  Heap-held, like the fabric, so the fabric's pointer to it stays
     *  valid when the execution is moved; declared first so it
     *  outlives the fabric. */
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<CycleFabric> fabric;
    RunStatus status = RunStatus::StepLimit;
    /** The FatalError text when an injected fault escalated to an
     *  architectural trap; the fabric stops in the trapping cycle. */
    std::optional<std::string> trap;
};

/**
 * Build the workload's fabric under @p uarch, preload its memory and
 * run it with @p options (budget, watchdog window, fault plan, trace
 * sink, reference scheduler, stop token). Corrupted tokens can
 * escalate to traps (out-of-bounds addresses and the like); on an
 * injected run that is a reportable outcome, so the FatalError is
 * caught into CycleExecution::trap. A clean run lets it propagate.
 * Ignores @p options.cache, which is runCycle's business.
 */
CycleExecution executeCycle(const Workload &workload, const PeConfig &uarch,
                            const CycleRunOptions &options);

/** Run on the functional (golden) simulator. */
WorkloadRun runFunctional(const Workload &workload,
                          std::uint64_t max_steps = 50'000'000);

/**
 * Run cycle-accurately under microarchitecture @p uarch, with optional
 * fault injection, watchdog window, tracing and result cache.
 */
WorkloadRun runCycle(const Workload &workload, const PeConfig &uarch,
                     const CycleRunOptions &options = {});

/**
 * The uarch x workload batch product behind the Figure 5 CPI stacks.
 * Cell (c, w) equals runCycle(workloads[w], configs[c], options); every
 * task owns its fabrics, fault-injector RNGs and counters, so the
 * matrix is element-wise bit-identical for any jobs count (asserted by
 * tests/test_sweep_pipeline.cc and tests/test_derived_cells.cc).
 */
struct CycleMatrix
{
    /** Row-major cells: run(c, w) = runs[c * numWorkloads + w]. */
    std::vector<WorkloadRun> runs;
    std::size_t numConfigs = 0;
    std::size_t numWorkloads = 0;
    unsigned jobs = 1;   ///< Worker threads used.
    double wallMs = 0.0; ///< Wall-clock time of the whole matrix.
    /**
     * Cells whose run this matrix simulated, and cells it derived from
     * a sibling's run instead (see runCycleMatrix). With a cache, only
     * misses count here, so simulated + derived + hits + coalesced ==
     * cells when the matrix alone used the cache.
     */
    std::size_t simulated = 0;
    std::size_t derived = 0;

    const WorkloadRun &
    run(std::size_t config, std::size_t workload) const
    {
        return runs.at(config * numWorkloads + workload);
    }
};

/**
 * Run every workload under every microarchitecture on the
 * SweepPipeline (exec/pipeline.hh). The returned matrix is complete
 * and bit-identical for every jobs count. A task exception cancels
 * running siblings and is rethrown.
 *
 * One pipeline task runs a *sibling group*: one workload's cells whose
 * configs share shape and +N, in config-list order. A cell is derived
 * instead of simulated when an earlier cell of its group was simulated
 * under a subset of its knobs, halted, and its KnobWitness proves the
 * missing knobs changed no decision (docs/perf.md, "Derived cells").
 * A derived cell still goes through the cache under its own key.
 * Fault-injected, traced, reference-scheduler and verify-hits runs
 * simulate every cell.
 *
 * @param jobs worker threads; 0 = hardware concurrency, 1 = serial
 *             reference loop.
 */
CycleMatrix runCycleMatrix(const std::vector<Workload> &workloads,
                           const std::vector<PeConfig> &configs,
                           const CycleRunOptions &options = {},
                           unsigned jobs = 1);

/**
 * Build the tia-metrics/v1 run entry for a finished cycle run: status,
 * cycle count, hang verdict, executed PE steps, the worker PE's
 * counters/CPI stack and (for injected runs) the fault outcome. The
 * single-element "pes" array carries the worker PE only — matching
 * what WorkloadRun retains — while "num_pes" reports the true fabric
 * size, so validators apply whole-fabric identities only when the two
 * agree.
 */
JsonValue workloadRunMetrics(const WorkloadRun &run, const PeConfig &uarch,
                             const std::string &workload);

/**
 * Append the tia-metrics/v1 "faults" fields every producer shares —
 * "total_fired" and one {name, fired, declined} entry per plan line
 * under "lines" — to @p block, after the caller's leading fields
 * ("outcome" in workloadRunMetrics, "plan" in tia-sim).
 */
JsonValue faultStatsJson(const FaultStats &stats, JsonValue block);

} // namespace tia

#endif // TIA_WORKLOADS_RUNNER_HH
