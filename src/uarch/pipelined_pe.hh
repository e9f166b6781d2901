/**
 * @file
 * Cycle-accurate pipelined triggered PE (paper Sections 4 and 5).
 *
 * One class models all eight stage partitions (TDX ... T|D|X1|X2) with
 * the two hazard mitigations independently togglable:
 *
 *  - Without +P, an in-flight datapath predicate write makes dependent
 *    triggers unresolvable; the front end stalls (predicate hazard)
 *    whenever the highest-priority possibly-eligible trigger depends on
 *    a pending predicate bit.
 *  - With +P, a two-bit-counter prediction resolves the bit at issue;
 *    nested speculation is not supported, and instructions with
 *    pre-retirement side effects (dequeues, scratchpad stores, halt)
 *    are forbidden while speculation is unconfirmed. Misprediction
 *    flushes the younger in-flight instructions and restores the saved
 *    predicate state.
 *  - Without +Q, queues with in-flight dequeues are conservatively
 *    treated as empty and queues with in-flight enqueues as full (the
 *    RAW-style discipline cited in Section 5.3). With +Q, the scheduler
 *    subtracts in-flight dequeues from input occupancy (peeking at the
 *    "head and neck" for tags) and adds in-flight enqueues to output
 *    occupancy.
 *
 * Phase timing: trigger work (scheduling, trigger-time predicate
 * update, prediction) happens in the segment containing T; operand
 * capture with full forwarding plus dequeues happen in the segment
 * containing D (dequeues were "moved to decode" per Section 5.4);
 * results, enqueues and datapath predicate writes commit at the end of
 * the segment containing X (or X2). Back-to-back register dependences
 * therefore cost one bubble exactly in the split-ALU (X1|X2) shapes.
 *
 * In-flight entries stay where issue put them (a slot ring); a
 * stage-to-entry map says which entry each segment holds, so advancing
 * a stage moves a one-byte index, not the entry.
 *
 * Control (trigger resolution, hazards, issue, prediction, flush) reads
 * only control state, queue status and the one datapath predicate
 * write a cycle can hold. The owning fabric's control memo
 * (uarch/fabric_memo.hh) relies on that split: packControl() and
 * unpackControl() save and restore exactly the control fields, and
 * while the memo records a step() the PE reports each datapath action
 * it performs, so a replayed cycle runs only its datapath work. See
 * docs/perf.md, "The fabric control memo".
 */

#ifndef TIA_UARCH_PIPELINED_PE_HH
#define TIA_UARCH_PIPELINED_PE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/opcode.hh"
#include "core/program.hh"
#include "obs/trace.hh"
#include "sim/queue.hh"
#include "sim/scheduler.hh"
#include "uarch/config.hh"
#include "uarch/control_key.hh"
#include "uarch/counters.hh"
#include "uarch/predictor.hh"

namespace tia {

class FabricMemo;
class FaultInjector;

/**
 * Why a PE cannot fire this cycle, from the scheduler's own queue
 * view: the input/output ports its predicate-eligible instructions
 * are blocked on. Feeds the wait-for graph of sim/hang_diagnosis.hh.
 */
struct PeWaitInfo
{
    /** Some instruction's predicate condition matches current state. */
    bool predicateEligible = false;
    /** Some instruction could fire right now (not actually blocked). */
    bool canFire = false;
    /** Input ports whose queues are empty or hold the wrong tag. */
    std::vector<unsigned> waitInputs;
    /** Output ports whose queues have no space. */
    std::vector<unsigned> waitOutputs;

    bool blocked() const
    {
        return predicateEligible && !canFire &&
               (!waitInputs.empty() || !waitOutputs.empty());
    }
};

/**
 * The hazard mitigations off in a run's config that would have changed
 * one of its decisions had they been on. Sticky over a run: a clear
 * bit proves that the run with that knob on is this very run (see
 * docs/perf.md, "Derived cells").
 */
struct KnobWitness
{
    /** A predicate writer issued into a pipeline (+P would predict). */
    bool predictPredicates = false;
    /** The effective queue view would have resolved differently (+Q). */
    bool effectiveQueueStatus = false;

    KnobWitness &
    operator|=(const KnobWitness &other)
    {
        predictPredicates = predictPredicates || other.predictPredicates;
        effectiveQueueStatus =
            effectiveQueueStatus || other.effectiveQueueStatus;
        return *this;
    }
};

/** A cycle-accurate triggered PE with a configurable pipeline. */
class PipelinedPe
{
  public:
    PipelinedPe(const ArchParams &params, const PeConfig &config,
                std::vector<Instruction> program);

    void bindInput(unsigned port, TaggedQueue *queue);
    void bindOutput(unsigned port, TaggedQueue *queue);
    void setRegs(const std::vector<Word> &values);

    void setPreds(std::uint64_t preds) { preds_ = preds; }

    /** Install a fault injector; @p id names this PE in the plan. */
    void
    setFaultInjector(FaultInjector *injector, unsigned id)
    {
        faultInjector_ = injector;
        peId_ = id;
    }

    /**
     * Install (or clear, with nullptr) a trace sink; @p id names this
     * PE in the event stream. Every counter increment then emits one
     * event at the incrementing statement (see obs/trace.hh); with no
     * sink the emission sites cost one null test each.
     */
    void
    setTraceSink(TraceSink *sink, TraceLevel level, unsigned id)
    {
        trace_ = sink;
        traceLevel_ = level;
        traceId_ = id;
    }

    /**
     * Route trigger resolution through the virtual QueueStatusView
     * reference scheduler instead of the compiled TriggerEncoder. The
     * two are bit-identical (tests/test_hot_path.cc); the runtime
     * switch lets the observability tests cross-check trace-derived
     * counters against both implementations end to end.
     */
    void
    setUseReferenceScheduler(bool enabled)
    {
        referenceScheduler_ = enabled;
    }

    /** Diagnose what (if anything) this PE is blocked on. */
    PeWaitInfo queueWaits() const;

    /** Advance one clock cycle. No-op once halted. */
    void step();

    /** True once a halt instruction has retired. */
    bool halted() const { return halted_; }

    /** True if any instruction is in flight (for quiescence checks). */
    bool busy() const { return occupied_ != 0; }

    /** Number of issued-but-unretired instructions in the pipeline. */
    unsigned inFlight() const;

    const PerfCounters &counters() const { return counters_; }
    const PeConfig &config() const { return config_; }

    /**
     * Which of +P and +Q, off in this PE's config, would so far have
     * changed a decision (KnobWitness). +P acts only where a predicate
     * writer issues into a pipeline; +Q only where a resolution that
     * fetched queue status picks differently under the effective view.
     * Cycles replayed from the fabric's control memo were recorded
     * through step(), which already set any bit they would set.
     */
    const KnobWitness &knobWitness() const { return witness_; }

    std::uint64_t preds() const { return preds_; }
    const std::vector<Word> &regs() const { return regs_; }
    const std::vector<Word> &scratchpad() const { return scratchpad_; }

    /**
     * Write the control state at a cycle boundary at @p out, at most
     * controlKeyBytes() bytes: every field step() reads apart from data
     * (registers, scratchpad, operands) and queue contents. Panics
     * mid-cycle or once halted.
     */
    void packControl(char *&out) const;

    /** Most bytes packControl() writes. */
    std::size_t controlKeyBytes() const;

    /** Restore what packControl() wrote, read back from @p key. */
    void unpackControl(KeyReader &key);

  private:
    friend class CycleQueueView;
    friend class FabricMemo;

    /** One instruction in flight. */
    struct InFlight
    {
        const Instruction *inst = nullptr;
        unsigned index = 0;       ///< Instruction-store index.
        std::uint64_t id = 0;     ///< Issue order id.
        /**
         * Number of unconfirmed speculation contexts this instruction
         * was issued under (0 = non-speculative). With nested
         * speculation off this is at most 1.
         */
        unsigned specLevel = 0;
        bool isPredictor = false; ///< Carries one of the predictions.
        bool predictedValue = false;
        bool faultFlipped = false; ///< Prediction inverted by injection.
        bool didD = false;        ///< Operand capture / dequeue done.
        std::array<Word, 2> operands = {0, 0};

        bool speculative() const { return specLevel > 0; }
    };

    /**
     * Register-dependence stall check for an instruction in D: O(1),
     * since only the slot one past D can hold a blocking producer.
     */
    bool dataHazardFor(const Instruction &inst) const;

    /**
     * Queue status as the scheduler sees it (Section 5.3): live input
     * occupancy net of in-flight dequeues, cycle-start output occupancy
     * gross of in-flight and just-performed enqueues. Without +Q the
     * view degrades to the conservative full/empty discipline; the
     * view is a parameter (@p effective) so the +Q witness can ask
     * both. These are the single source of truth for both the
     * per-cycle fail mask and the diagnostic QueueStatusView, and the
     * only code +Q changes. Defined inline below the class —
     * queueFailMask runs them once per watched queue on every cycle
     * whose resolution needs queue status.
     */
    unsigned schedInputOccupancy(unsigned q, bool effective) const;
    std::optional<Tag> schedInputHeadTag(unsigned q, bool effective) const;
    bool schedOutputHasSpace(unsigned q, bool effective) const;

    /**
     * This cycle's TriggerEncoder::queueFail mask under the effective
     * or the conservative view, which the encoder asks for only once
     * a predicate-eligible trigger needs queues
     * (TriggerEncoder::resolve).
     */
    std::uint64_t queueFailMask(bool effective) const;

    /**
     * True when the conservative and effective views can disagree
     * this cycle: some watched queue has a dequeue or enqueue in
     * flight, or was popped or pushed this cycle. Otherwise the sched*
     * functions above answer the same under both.
     */
    bool queueViewsMayDiffer() const;

    /**
     * Trigger resolution, afresh every cycle like the paper's
     * combinational priority encoder: the compiled TriggerEncoder, or
     * the reference scheduler when setUseReferenceScheduler is on.
     */
    ScheduleResult resolveTriggers();

    /** The entry in flight in segment @p s (occupied_ bit s set). */
    InFlight &slot(unsigned s) { return entries_[stage_[s]]; }
    const InFlight &slot(unsigned s) const { return entries_[stage_[s]]; }

    /** Perform operand capture and dequeues (D-phase work). */
    void doDecode(InFlight &entry);

    /**
     * The datapath result of a non-halt @p inst on operands (@p a,
     * @p b): the ALU value, the scratchpad word a load reads, or 0 for
     * a store. False when the scratchpad access is out of bounds (a
     * writeback traps). Changes nothing: a store is left to the caller.
     */
    bool datapathResult(const Instruction &inst, Word a, Word b,
                        Word &result) const;

    /** Compute, commit and resolve speculation (X/writeback work). */
    void doWriteback(InFlight &entry);

    /** Issue logic for this cycle (T-phase work + attribution). */
    void issue();

    /** Flush all speculative in-flight instructions. */
    void flushSpeculative();

    Word readSource(const Source &src, Word imm) const;

    /**
     * Emit one trace event stamped with the cycle step() is executing
     * (counters_.cycles was already incremented at step entry). Callers
     * guard with `if (trace_)` so the disabled path stays one test;
     * the body lives out of line in a cold section so the dozen-plus
     * emission sites do not bloat the hot step loop's code footprint.
     */
    [[gnu::cold, gnu::noinline]] void
    trace(TraceEventKind kind, std::uint8_t arg = 0,
          std::uint16_t index = 0, std::uint64_t value = 0) const;

    [[gnu::cold, gnu::noinline]] void traceBucket(TraceBucket bucket) const;

    /**
     * Trigger resolution through the virtual QueueStatusView reference
     * scheduler (setUseReferenceScheduler). Out of line and cold so
     * the view construction and virtual scheduler stay off issue()'s
     * fast path and out of its inlining budget.
     */
    [[gnu::cold, gnu::noinline]] ScheduleResult scheduleReference() const;

    const ArchParams params_;
    const PeConfig config_;
    // Shape constants, read every cycle.
    const unsigned segD_;    ///< Segment performing D (0 or 1).
    const unsigned lastSeg_; ///< Writeback segment (depth - 1).
    const bool splitX_;      ///< X1|X2: the one shape family with D stalls.
    std::vector<Instruction> program_;

    /** The program's triggers compiled to instruction masks. */
    const TriggerEncoder encoder_;

    // Architectural state.
    std::vector<Word> regs_;
    std::vector<Word> scratchpad_;
    std::uint64_t preds_ = 0;
    bool halted_ = false;

    // Pipeline state.
    /**
     * The slot ring: an entry stays here from issue to retirement or
     * flush. Issue takes the lowest entry no segment holds.
     */
    std::array<InFlight, 4> entries_;
    /** Entry held by segment s; meaningful only while occupied_ bit s is set. */
    std::array<std::uint8_t, 4> stage_ = {};
    /**
     * Bit s set iff segment s holds an instruction: the one record of
     * slot occupancy. busy()/inFlight() read it as a single
     * compare, and the step phases visit only occupied segments.
     */
    std::uint8_t occupied_ = 0;
    std::uint64_t nextId_ = 1;
    bool haltIssued_ = false;

    // Hazard accounting.
    std::vector<unsigned> pendingDeq_; ///< Per input queue.
    std::vector<unsigned> pendingEnq_; ///< Per output queue.
    std::vector<unsigned> pendingPredWrites_; ///< Per predicate (no +P).
    /** Bit p set iff pendingPredWrites_[p] > 0 (kept incrementally). */
    std::uint64_t pendingPredMask_ = 0;

    // Speculation state (+P / +N). Contexts are ordered oldest first;
    // in-order execution guarantees they resolve front to back.
    struct SpecContext
    {
        std::uint64_t id;            ///< Predicting instruction.
        std::uint64_t fallbackPreds; ///< State to restore on mispredict.
    };
    PredicatePredictor predictor_;
    std::vector<SpecContext> specContexts_;

    /** Maximum simultaneous predictions with nested speculation. */
    static constexpr unsigned kMaxNestedSpeculation = 3;

    bool specActive() const { return !specContexts_.empty(); }

    /**
     * A datapath predicate write lands at the end of its writeback
     * cycle, so it must stay invisible to this cycle's trigger
     * resolution; it is buffered here and committed at end of step().
     */
    struct PredCommit
    {
        unsigned index;
        bool value;
    };
    std::optional<PredCommit> pendingPredCommit_;

    /** Misprediction squashes this cycle's issue slot as well. */
    bool squashIssueThisCycle_ = false;

    // Channel bindings.
    std::vector<TaggedQueue *> inputs_;
    std::vector<TaggedQueue *> outputs_;

    // Fault injection (optional, non-owning).
    FaultInjector *faultInjector_ = nullptr;
    unsigned peId_ = 0;

    PerfCounters counters_;

    /** Off knobs that would have changed a decision (knobWitness). */
    KnobWitness witness_;

    /** The fabric memo recording this step(), if any (non-owning). */
    FabricMemo *recorder_ = nullptr;

    // Observability (optional, non-owning). Last on purpose: keeps
    // the per-cycle members above — counters_ especially — at their
    // established offsets.
    TraceSink *trace_ = nullptr;
    TraceLevel traceLevel_ = TraceLevel::Events;
    std::uint32_t traceId_ = 0;
    /** Use the virtual reference scheduler instead of the mask path. */
    bool referenceScheduler_ = false;
};

inline unsigned
PipelinedPe::schedInputOccupancy(unsigned q, bool effective) const
{
    const TaggedQueue *queue = inputs_[q];
    if (!queue)
        return 0;
    if (queue->faultStuckEmpty())
        return 0;
    const unsigned pending = pendingDeq_[q];
    if (!effective) {
        // Conservative (RAW-style): a dequeue that was in flight at
        // the start of this cycle — including one that landed in
        // decode this very cycle — makes the queue look empty.
        const unsigned pending_at_start = pending + queue->popsThisCycle();
        return pending_at_start > 0 ? 0 : queue->size();
    }
    // Effective status: live occupancy net of in-flight dequeues
    // (algebraically identical to cycle-start occupancy minus
    // cycle-start in-flight dequeues).
    const unsigned live = queue->size();
    return live > pending ? live - pending : 0;
}

inline std::optional<Tag>
PipelinedPe::schedInputHeadTag(unsigned q, bool effective) const
{
    const TaggedQueue *queue = inputs_[q];
    if (!queue)
        return std::nullopt;
    if (queue->faultStuckEmpty())
        return std::nullopt;
    const unsigned depth = effective ? pendingDeq_[q] : 0;
    const Token *token = queue->peekPtr(depth);
    if (token == nullptr)
        return std::nullopt;
    return token->tag;
}

inline bool
PipelinedPe::schedOutputHasSpace(unsigned q, bool effective) const
{
    const TaggedQueue *queue = outputs_[q];
    if (!queue)
        return false;
    if (queue->faultStuckFull())
        return false;
    const unsigned pending = pendingEnq_[q];
    // Occupancy the consumer cannot have drained yet this cycle:
    // cycle-start contents plus pushes performed this cycle.
    const unsigned used = queue->snapshotSize() + queue->pendingPushes();
    if (!effective) {
        // Conservative: any enqueue in flight at cycle start —
        // including one that landed this cycle — makes the queue
        // look full.
        const unsigned pending_at_start = pending + queue->pendingPushes();
        return pending_at_start == 0 && used < queue->capacity();
    }
    return used + pending < queue->capacity();
}

inline bool
PipelinedPe::datapathResult(const Instruction &inst, Word a, Word b,
                            Word &result) const
{
    const OpInfo &info = opInfo(inst.op);
    result = 0;
    if (info.readsScratchpad) {
        const Word address = a + b;
        if (address >= scratchpad_.size())
            return false;
        result = scratchpad_[address];
    } else if (info.writesScratchpad) {
        return a < scratchpad_.size();
    } else {
        result = evalAlu(inst.op, a, b);
    }
    return true;
}

} // namespace tia

#endif // TIA_UARCH_PIPELINED_PE_HH
