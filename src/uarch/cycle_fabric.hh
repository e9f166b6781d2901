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
 * Every unhalted PE steps every cycle. PE evaluation order within a
 * cycle is unobservable, because FabricConfig::validate guarantees
 * exactly one producer and one consumer per channel; only the partial
 * cycle a trap leaves shows it.
 *
 * Channel upkeep is proportional to activity: the queues record their
 * pushes and pops in a QueueEventLog, and only channels touched this
 * cycle need a commit at its end. A commit ends the channel's cycle,
 * so no channel state outlives it and the next cycle needs no set-up.
 * Replayed cycles skip that upkeep (their tokens move through the
 * queues' replay operations, sim/queue.hh) and leave the channels as
 * a commit does.
 *
 * The control memo, the fabric's one host-side shortcut: past
 * FabricMemo::kEngageAfter cycles of a run(), run() follows the fabric
 * through its control states and replays the whole-fabric cycles a
 * step() already recorded from the same state, running only their
 * data actions (uarch/fabric_memo.hh; docs/perf.md, "The fabric
 * control memo"). It is off under a trace sink and a fault injector,
 * and every run() leaves the fabric materialized, so step(), the
 * accessors and a later run() see exactly the state a bare step()
 * loop leaves. stepStats() counts replayed steps as executed ones, and
 * separately, with the cycles replayed and the lookups that ran them.
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

/**
 * Knobs for CycleFabric::run; every field has a default, so a call
 * names only the leading ones it sets, as in run({max, window}).
 */
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
    StopToken stop = {};
};

/** Host-side execution statistics (see tools/tia_sim --stats). */
struct FabricStepStats
{
    /** PE steps executed: one per unhalted PE per cycle. */
    std::uint64_t peStepsExecuted = 0;
    /**
     * Executed PE steps replayed from the control memo (a subset of
     * peStepsExecuted): datapath work only, control read off a
     * recorded transition.
     */
    std::uint64_t peStepsReplayed = 0;
    /** Cycles the control memo replayed. */
    std::uint64_t cyclesReplayed = 0;
    /**
     * Control memo lookups that replayed: each ran one superblock, an
     * edge and its straight successors (uarch/fabric_memo.hh).
     */
    std::uint64_t replayLookups = 0;
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
    RunStatus run(const FabricRunOptions &options = {});

    /** Diagnosis of how the last run() ended. */
    const HangReport &hangReport() const { return report_; }

    Cycle now() const { return now_; }

    Memory &memory() { return memory_; }
    const Memory &memory() const { return memory_; }

    /**
     * PE access, read-only. Throws std::out_of_range for an index past
     * numPes().
     */
    const PipelinedPe &pe(unsigned index) const { return *pes_.at(index); }

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

    unsigned
    numReadPorts() const
    {
        return static_cast<unsigned>(readPorts_.size());
    }

    /**
     * Read port access (e.g. its held requests); throws
     * std::out_of_range for a port past numReadPorts().
     */
    const MemoryReadPort &
    readPort(unsigned port) const
    {
        return *readPorts_.at(port);
    }

    /**
     * Install (or clear, with nullptr) a trace sink on the fabric and
     * every PE. The fabric contributes (at Cycles level) end-of-cycle
     * queue depths; the PEs contribute the issue-slot, predictor and
     * stage events (see obs/trace.hh).
     */
    void setTraceSink(TraceSink *sink,
                      TraceLevel level = TraceLevel::Events);

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

    /**
     * Host-side step accounting. Each PE counts its own steps (one
     * cycle each), so the executed steps are their sum.
     */
    FabricStepStats
    stepStats() const
    {
        std::uint64_t executed = 0;
        for (const auto &pe : pes_)
            executed += pe->counters().cycles;
        return {executed, stepsReplayed_, cyclesReplayed_, replayLookups_};
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

    /** Step PE @p index once, with retire accounting. */
    void stepPe(unsigned index);

    /**
     * After activePes_[@p i] stepped: retire it if halted, count it if
     * busy. Returns false when it left the active list (swap-removed
     * into slot @p i).
     */
    bool settleActivePe(std::size_t i);

    /**
     * The rest of a cycle once every unhalted PE stepped: memory ports,
     * channel commits, depth samples, clock advance.
     */
    void endCycle();

    /**
     * Cold end-of-cycle queue-depth samples (`cycles` level only):
     * keeps the `if (trace_)` guard in endCycle() down to a test plus a
     * call to a cold section.
     */
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

    /** Unhalted PEs, in stepping order. */
    std::vector<unsigned> activePes_;

    /**
     * Channel activity, recorded inline by the queues (see queue.hh).
     * Dirty channels need a commit at this cycle's end, which ends
     * their cycle; the list is cleared then.
     */
    QueueEventLog events_;

    // Incremental run() accounting.
    std::uint64_t totalRetired_ = 0; ///< Sum of per-PE retired.
    unsigned activeBusyPes_ = 0;       ///< Busy PEs after the last step.

    // Host-side statistics.
    std::uint64_t stepsReplayed_ = 0;
    std::uint64_t cyclesReplayed_ = 0;
    std::uint64_t replayLookups_ = 0;

    /** The control memo, made at first engagement (run()). */
    std::unique_ptr<FabricMemo> memo_;

    // Observability (optional, non-owning). Last on purpose: the hot
    // step loop touches the members above every cycle, and inserting
    // fields ahead of them shifts their offsets across cache lines.
    TraceSink *trace_ = nullptr;
    TraceLevel traceLevel_ = TraceLevel::Events;
};

} // namespace tia

#endif // TIA_UARCH_CYCLE_FABRIC_HH
