/**
 * @file
 * Cycle-accurate spatial fabric: pipelined PEs + channels + memory
 * ports stepped in lockstep with RTL-like update semantics (pushes
 * commit at cycle boundaries; all agents observe consistent state
 * regardless of evaluation order).
 *
 * The fabric doubles as the fault-injection and hang-diagnosis
 * harness: an optional FaultInjector is threaded through every
 * channel, PE and memory port, and run() ends every execution with a
 * HangReport that distinguishes a finished fabric from a deadlocked
 * (wait-for cycle) or livelocked (spinning without progress) one.
 *
 * Idle-PE sleep/wake: a PE that reports canSleep() — nothing in
 * flight and a provably repeating no-trigger cycle — is parked off
 * the active list and re-stepped only once a channel its triggers
 * watch reports a push or pop (QueueEventLog). Because
 * FabricConfig::validate guarantees exactly one producer and one
 * consumer per channel, a parked PE's scheduler inputs cannot change
 * without such an event, and PE evaluation order within a cycle is
 * unobservable, so parking is invisible to the architecture: cycle
 * counts, per-PE counters and hang reports are bit-identical to
 * stepping every PE every cycle (asserted by tests/test_hot_path.cc).
 * Skipped steps are re-accounted lazily (each is exactly one
 * no-trigger cycle) before any counter observation. A PE whose park
 * decision coincides with activity on a watched channel is kept
 * active instead of parked — it would be woken at the next cycle's
 * start anyway, so parking it is pure churn. Sleep is disabled
 * under fault injection, whose stuck-status windows open and close
 * without queue events.
 *
 * The same event lists make channel upkeep proportional to activity:
 * only channels touched last cycle need a new snapshot (beginCycle)
 * and only channels pushed this cycle need a commit.
 *
 * Run-ahead: when run() finds exactly one PE awake, no channel dirty,
 * no memory port busy, and neither an injector nor a trace sink, that
 * PE is the only agent that can move, and it is stepped in a tight
 * loop without the per-cycle fabric walk. The loop ends on the first
 * step that pushes or pops, halts, can sleep or leaves the PE idle, or
 * at the next cycle-budget check or stop-token poll; that cycle
 * finishes through the same tail as step(). Run-ahead is invisible for
 * the same single-producer/single-consumer reason as parking: until
 * the PE touches a channel, no other agent's inputs can change, so
 * each skipped fabric walk would have found nothing to snapshot, wake,
 * serve, commit or park (asserted against a bare step() loop by
 * tests/test_hot_path.cc).
 */

#ifndef TIA_UARCH_CYCLE_FABRIC_HH
#define TIA_UARCH_CYCLE_FABRIC_HH

#include <memory>
#include <vector>

#include "core/program.hh"
#include "exec/stop_token.hh"
#include "obs/trace.hh"
#include "sim/fabric_config.hh"
#include "sim/fault.hh"
#include "sim/functional.hh" // RunStatus
#include "sim/hang_diagnosis.hh"
#include "sim/memory.hh"
#include "sim/queue.hh"
#include "uarch/pipelined_pe.hh"

namespace tia {

/** Cycles between stop-token polls in CycleFabric::run (a poll reads
 *  the clock). */
constexpr Cycle kStopCheckInterval = 4096;

/** Knobs for CycleFabric::run (previously hard-coded defaults). */
struct FabricRunOptions
{
    /** Simulation budget in cycles (core/types.hh, shared default). */
    Cycle maxCycles = kDefaultMaxCycles;
    /**
     * Cycles without retirement or agent activity before the fabric
     * is declared quiescent — and, at the step limit, cycles without
     * observable progress before a run is classified as livelock.
     */
    Cycle quiescenceWindow = kDefaultQuiescenceWindow;
    /**
     * Cooperative cancellation (exec/stop_token.hh). Polled every
     * kStopCheckInterval cycles; when it fires, run() returns
     * RunStatus::Cancelled promptly with a hang report naming the
     * reason, instead of running out the cycle budget. A detached
     * token (the default) costs nothing on the hot path.
     */
    StopToken stop;
};

/** Host-side execution statistics (see tools/tia_sim --stats). */
struct FabricStepStats
{
    /** PE steps actually executed. */
    std::uint64_t peStepsExecuted = 0;
    /** PE steps skipped by the idle sleep list (accounted lazily). */
    std::uint64_t peStepsSkipped = 0;
};

/** A full cycle-accurate fabric running one microarchitecture. */
class CycleFabric
{
  public:
    /**
     * @param config   fabric wiring (same object the functional fabric
     *                 takes, enabling equivalence testing).
     * @param program  assembled program.
     * @param uarch    PE microarchitecture used for every PE.
     * @param injector optional fault injector, threaded through every
     *                 channel, PE and memory read port (non-owning;
     *                 must outlive the fabric).
     */
    CycleFabric(const FabricConfig &config, const Program &program,
                const PeConfig &uarch, FaultInjector *injector = nullptr);

    /** Advance one clock cycle. */
    void step();

    /**
     * Run until every PE halts, the fabric goes quiescent (no retire
     * or agent activity for the quiescence window), or the cycle
     * budget elapses. Quiescent and step-limit endings are diagnosed:
     * a wait-for cycle upgrades Quiescent to Deadlock, and a stretch
     * of activity without observable progress upgrades StepLimit to
     * Livelock. hangReport() carries the full diagnosis.
     */
    RunStatus run(const FabricRunOptions &options);

    /** Convenience overload with the historical signature. */
    RunStatus
    run(Cycle max_cycles = kDefaultMaxCycles,
        Cycle quiescence_window = kDefaultQuiescenceWindow)
    {
        FabricRunOptions options;
        options.maxCycles = max_cycles;
        options.quiescenceWindow = quiescence_window;
        return run(options);
    }

    /** Diagnosis of how the last run() ended. */
    const HangReport &hangReport() const { return report_; }

    /**
     * Build the wait-for graph and classify the fabric's current
     * state as if it had just gone quiescent (exposed for tools and
     * tests; run() calls this internally).
     */
    HangReport diagnoseQuiescence() const;

    Cycle now() const { return now_; }

    Memory &memory() { return memory_; }
    const Memory &memory() const { return memory_; }

    /**
     * PE access. The non-const overload wakes a sleeping PE first:
     * callers may mutate state (predicates, registers) the sleep
     * criterion depended on. Both overloads settle the PE's lazily
     * accounted sleep cycles so counters read exact.
     */
    PipelinedPe &
    pe(unsigned index)
    {
        wakePe(index);
        return *pes_.at(index);
    }

    const PipelinedPe &
    pe(unsigned index) const
    {
        if (asleep_[index])
            syncSleepCounters(index);
        return *pes_.at(index);
    }

    unsigned numPes() const { return static_cast<unsigned>(pes_.size()); }

    unsigned
    numChannels() const
    {
        return static_cast<unsigned>(channels_.size());
    }

    /** Channel access (e.g. high-water marks for metrics). */
    const TaggedQueue &channel(unsigned ch) const { return *channels_[ch]; }

    /**
     * Install (or clear, with nullptr) a trace sink on the fabric and
     * every PE. The fabric contributes park/wake instants and (at
     * Cycles level) end-of-cycle queue depths; the PEs contribute the
     * issue-slot, predictor and stage events (see obs/trace.hh).
     * Idle-PE sleep stays enabled under tracing — a parked PE's
     * skipped cycles surface as retroactive no-trigger attributions at
     * settlement, keeping trace-derived counters bit-identical.
     */
    void setTraceSink(TraceSink *sink,
                      TraceLevel level = TraceLevel::Events);

    /**
     * Route every PE's trigger resolution through the virtual
     * QueueStatusView reference scheduler (bit-identical to the mask
     * fast path; see PipelinedPe::setUseReferenceScheduler).
     */
    void
    setUseReferenceScheduler(bool enabled)
    {
        for (auto &pe : pes_)
            pe->setUseReferenceScheduler(enabled);
    }

    /**
     * Enable/disable idle-PE sleep (enabled by default without a fault
     * injector; always off with one). Disabling wakes every parked PE;
     * results are identical either way — the knob exists for the
     * equivalence tests and for profiling.
     */
    void setIdleSleepEnabled(bool enabled);

    /** Host-side step accounting (settles lazy sleep debt). */
    FabricStepStats
    stepStats() const
    {
        flushSleepDebt();
        return {stepsExecuted_, stepsSkipped_};
    }

  private:
    /** Some memory port holds or awaits a request. */
    bool portsBusy() const;

    bool anyActivity() const;

    /** Step PE @p index once, with retire and step accounting. */
    void stepPe(unsigned index);

    /**
     * After activePes_[@p i] stepped: retire it if halted, make it a
     * park candidate if it can sleep, count it if busy. Returns false
     * when it left the active list (swap-removed into slot @p i).
     */
    bool settleActivePe(std::size_t i);

    /**
     * The rest of a cycle once every awake PE stepped: memory ports,
     * channel commits, deferred parks, depth samples, clock advance.
     * Shared by step() and runAhead().
     */
    void endCycle();

    /**
     * True when one PE is the only agent that can move: it is the only
     * awake PE, no channel is dirty, no memory port is busy, and
     * neither an injector nor a trace sink is installed.
     */
    bool canRunAhead() const;

    /**
     * Run-ahead (see file comment), entered when canRunAhead(); the
     * cycle that reaches @p limit is its last. Every cycle before the
     * last was active, so each is recorded in @p lastRetired and
     * @p lastActivity as run()'s per-cycle bookkeeping would.
     */
    void runAhead(Cycle limit, std::uint64_t &lastRetired,
                  Cycle &lastActivity);

    /**
     * Re-activate PE @p index if parked, settling its sleep debt.
     * Inline no-op for awake PEs — wake subscriptions fire on every
     * watched-channel event, parked or not.
     */
    void
    wakePe(unsigned index)
    {
        if (asleep_[index])
            wakeParkedPe(index);
    }

    /** Out-of-line slow half of wakePe(). */
    void wakeParkedPe(unsigned index);

    /**
     * Account the cycles PE @p index slept through since its last
     * executed step: each is exactly one no-trigger cycle.
     */
    void syncSleepCounters(unsigned index) const;

    /** Settle the sleep debt of every parked PE (before observation). */
    void flushSleepDebt() const;

    /**
     * Out-of-line cold emission for the fabric's own trace events
     * (park/wake, end-of-cycle queue depths) — keeps the `if (trace_)`
     * guards in step() down to a test plus a call to a cold section.
     */
    [[gnu::cold, gnu::noinline]] void
    traceEvent(std::uint32_t pe, TraceEventKind kind,
               std::uint16_t index = 0, std::uint64_t value = 0) const;

    /** Cold end-of-cycle queue-depth samples (`cycles` level only). */
    [[gnu::cold, gnu::noinline]] void traceQueueDepths() const;

    FabricConfig config_;
    Memory memory_;
    std::vector<std::unique_ptr<TaggedQueue>> channels_;
    std::vector<std::unique_ptr<PipelinedPe>> pes_;
    std::vector<std::unique_ptr<MemoryReadPort>> readPorts_;
    std::vector<std::unique_ptr<MemoryWritePort>> writePorts_;
    FaultInjector *injector_ = nullptr;
    HangReport report_;
    Cycle now_ = 0;

    // Sleep/wake machinery.
    bool sleepEnabled_ = true;
    std::vector<unsigned> activePes_;     ///< Awake, unhalted PEs.
    std::vector<std::uint8_t> asleep_;    ///< Parked flag, per PE.
    /** Cycle of each PE's last executed (or accounted) step. */
    mutable std::vector<Cycle> sleepSince_;
    /** Channel -> PEs whose triggers watch it (wake set). */
    std::vector<std::vector<unsigned>> channelPes_;
    /** PE -> channels its triggers watch (inverse subscriptions). */
    std::vector<std::vector<unsigned>> peChannels_;
    /** PEs whose park decision is pending until the cycle ends. */
    std::vector<unsigned> parkCandidates_;

    /**
     * Channel activity, recorded inline by the queues (see queue.hh).
     * Dirty channels need beginCycle + wake at the next cycle's start;
     * pushed channels need a commit at this cycle's end.
     */
    QueueEventLog events_;

    // Incremental run() accounting.
    std::uint64_t totalRetired_ = 0; ///< Sum of per-PE retired.
    unsigned haltedPes_ = 0;
    unsigned activeBusyPes_ = 0;       ///< Busy PEs after the last step.

    // Host-side statistics.
    std::uint64_t stepsExecuted_ = 0;
    mutable std::uint64_t stepsSkipped_ = 0;

    // Observability (optional, non-owning). Last on purpose: the hot
    // step loop touches the members above every cycle, and inserting
    // fields ahead of them shifts their offsets across cache lines.
    TraceSink *trace_ = nullptr;
    TraceLevel traceLevel_ = TraceLevel::Events;
};

} // namespace tia

#endif // TIA_UARCH_CYCLE_FABRIC_HH
