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
 * no-trigger cycle) before any counter observation; a parked PE's
 * debt is the fabric clock minus its own cycle counter. A PE parks in
 * the cycle it first can; if a watched channel goes dirty later in
 * that same cycle, the next cycle's start wakes it with no sleep debt,
 * so it steps exactly when it would have without parking. Sleep is
 * disabled under fault injection, whose stuck-status windows open and
 * close without queue events.
 *
 * The same event list makes channel upkeep proportional to activity:
 * only channels touched this cycle need a commit at its end, and a new
 * snapshot (beginCycle) at the next cycle's start.
 *
 * The control memo: past FabricMemo::kEngageAfter cycles of a run(),
 * run() follows the fabric through its control states and replays the
 * whole-fabric cycles a step() already recorded from the same state,
 * running only their data actions (uarch/fabric_memo.hh; docs/perf.md,
 * "The fabric control memo"). It is off under a trace sink, a fault
 * injector and the reference scheduler, and every run() leaves the
 * fabric materialized, so step(), the accessors and a later run() see
 * exactly the state a bare step() loop leaves. stepStats() counts
 * replayed steps as executed ones, and separately.
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
#include "uarch/fabric_memo.hh"
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
    /**
     * Executed PE steps replayed from the control memo (a subset of
     * peStepsExecuted): datapath work only, control read off a
     * recorded transition.
     */
    std::uint64_t peStepsReplayed = 0;
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

    Cycle now() const { return now_; }

    Memory &memory() { return memory_; }
    const Memory &memory() const { return memory_; }

    /**
     * PE access, read-only: settles the PE's lazily accounted sleep
     * cycles so counters read exact. Throws std::out_of_range for an
     * index past numPes().
     */
    const PipelinedPe &
    pe(unsigned index) const
    {
        const PipelinedPe &result = *pes_.at(index);
        if (asleep_[index])
            syncSleepCounters(index);
        return result;
    }

    unsigned numPes() const { return static_cast<unsigned>(pes_.size()); }

    unsigned
    numChannels() const
    {
        return static_cast<unsigned>(channels_.size());
    }

    /**
     * Channel access (e.g. high-water marks for metrics); throws
     * std::out_of_range for a channel past numChannels().
     */
    const TaggedQueue &
    channel(unsigned ch) const
    {
        return *channels_.at(ch);
    }

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
     * QueueStatusView reference scheduler (bit-identical to the
     * trigger encoder; see PipelinedPe::setUseReferenceScheduler).
     */
    void
    setUseReferenceScheduler(bool enabled)
    {
        referenceScheduler_ = enabled;
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

    /**
     * The PEs' KnobWitness bits ORed: which of +P and +Q, off in this
     * fabric's config, would have changed some PE's decision so far.
     */
    KnobWitness
    knobWitness() const
    {
        KnobWitness witness;
        for (const auto &pe : pes_)
            witness |= pe->knobWitness();
        return witness;
    }

    /** Host-side step accounting (settles lazy sleep debt). */
    FabricStepStats
    stepStats() const
    {
        flushSleepDebt();
        return {stepsExecuted_, stepsSkipped_, stepsReplayed_};
    }

  private:
    friend class FabricMemo;

    /** Some memory port can still move by itself. */
    bool portsBusy() const;

    bool anyActivity() const;

    /**
     * Build the wait-for graph and classify the fabric's current
     * state as if it had just gone quiescent (run() calls this when
     * the quiescence window elapses).
     */
    HangReport diagnoseQuiescence() const;

    /** Step PE @p index once, with retire and step accounting. */
    void stepPe(unsigned index);

    /**
     * After activePes_[@p i] stepped: retire it if halted, park it if
     * it can sleep, count it if busy. Returns false when it left the
     * active list (swap-removed into slot @p i).
     */
    bool settleActivePe(std::size_t i);

    /**
     * The rest of a cycle once every awake PE stepped: memory ports,
     * channel commits, depth samples, clock advance.
     */
    void endCycle();

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
     * executed step: each is exactly one no-trigger cycle. The debt is
     * now_ minus the PE's own cycle counter, which stops while it is
     * parked.
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
    /** Channel -> PEs whose triggers watch it (wake set). */
    std::vector<std::vector<unsigned>> channelPes_;

    /**
     * Channel activity, recorded inline by the queues (see queue.hh).
     * Dirty channels need a commit at this cycle's end, and a
     * beginCycle plus a wake of their watchers at the next cycle's
     * start.
     */
    QueueEventLog events_;

    // Incremental run() accounting.
    std::uint64_t totalRetired_ = 0; ///< Sum of per-PE retired.
    unsigned haltedPes_ = 0;
    unsigned activeBusyPes_ = 0;       ///< Busy PEs after the last step.

    // Host-side statistics.
    std::uint64_t stepsExecuted_ = 0;
    mutable std::uint64_t stepsSkipped_ = 0;
    std::uint64_t stepsReplayed_ = 0;

    /** The control memo, made at first engagement (run()). */
    std::unique_ptr<FabricMemo> memo_;
    bool referenceScheduler_ = false;

    // Observability (optional, non-owning). Last on purpose: the hot
    // step loop touches the members above every cycle, and inserting
    // fields ahead of them shifts their offsets across cache lines.
    TraceSink *trace_ = nullptr;
    TraceLevel traceLevel_ = TraceLevel::Events;
};

} // namespace tia

#endif // TIA_UARCH_CYCLE_FABRIC_HH
