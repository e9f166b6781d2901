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
 * Memoized run-ahead: while the owning fabric runs this PE alone with
 * every channel frozen, runAhead() steps it through one episode, and
 * past kMemoThreshold cycles replays the cycles a per-PE memo recorded
 * from the same control state: control (trigger resolution, hazards,
 * issue, prediction, flush) reads only control state, queue status and
 * the one datapath predicate write a cycle can hold, so a replayed
 * cycle runs only its datapath work. See docs/perf.md, "Memoized
 * run-ahead".
 */

#ifndef TIA_UARCH_PIPELINED_PE_HH
#define TIA_UARCH_PIPELINED_PE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/program.hh"
#include "obs/trace.hh"
#include "sim/queue.hh"
#include "sim/scheduler.hh"
#include "uarch/config.hh"
#include "uarch/counters.hh"
#include "uarch/predictor.hh"

namespace tia {

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

    /**
     * Plain steps a run-ahead episode takes before it follows the
     * run-ahead memo. Short episodes never engage: bst averages 3.1
     * cycles per episode and mean 1.2, and a memo that engaged on
     * every episode made bst about 1.6x slower per cycle (docs/perf.md).
     */
    static constexpr unsigned kMemoThreshold = 64;

    /**
     * Most control states the run-ahead memo records per PE. Over all
     * 32 uarchs plus +P+N and +P+N+Q, the full-size Table 3 memos hold
     * at most 24 (gcd) and 269 (udiv) nodes per PE; no other workload
     * engages the memo. At the cap the memo stops recording (it never
     * clears mid-run) and unrecorded states run through step().
     */
    static constexpr std::size_t kMemoNodeCap = 4096;

    /** What runAhead() did, for the fabric's bookkeeping. */
    struct Episode
    {
        std::uint64_t cycles = 0;   ///< Cycles completed.
        std::uint64_t replayed = 0; ///< Of those, replayed from the memo.
        std::uint64_t retired = 0;  ///< Instructions they retired.
        std::uint64_t lastRetired = 0; ///< Of those, in the last cycle.
    };

    /**
     * Step this PE alone through one run-ahead episode (see the file
     * comment), until a cycle pushes or pops, halts, leaves the PE
     * able to sleep (with @p sleepEnabled, whether the fabric parks
     * idle PEs), or retires nothing and leaves nothing in flight — or
     * until @p maxCycles (at least one) have run. Only valid while no
     * other agent can move: every channel this PE is bound to stays
     * frozen until the episode ends, and no trace sink or fault
     * injector is installed. @p run counts as it goes, so after a trap
     * it holds the cycles completed before the trapping one.
     */
    void runAhead(std::uint64_t maxCycles, bool sleepEnabled, Episode &run);

    /**
     * True when stepping this PE again with unchanged queue status
     * would provably repeat a do-nothing cycle: nothing in flight, no
     * unresolved speculation or pending predicate write, and the last
     * step's trigger resolution came up empty. The owning fabric may
     * then park the PE and re-step it only after a watched channel
     * reports activity (see uarch/cycle_fabric.hh).
     */
    bool
    canSleep() const
    {
        return !halted_ && idleCycle_ && !busy() && !specActive() &&
               pendingPredMask_ == 0 && !pendingPredCommit_.has_value();
    }

    /**
     * Account @p n skipped cycles at once. Each skipped cycle is
     * exactly what step() would have done while asleep: one cycle
     * counted, attributed to "no trigger eligible".
     */
    void
    skipIdleCycles(std::uint64_t n)
    {
        if (trace_) [[unlikely]]
            traceSkippedCycles(n);
        counters_.cycles += n;
        counters_.noTrigger += n;
    }

    /** Input queues referenced by any trigger (bit per port). */
    std::uint32_t watchedInputs() const { return encoder_.inputsUsed(); }

    /** Output queues referenced by any trigger (bit per port). */
    std::uint32_t watchedOutputs() const { return encoder_.outputsUsed(); }

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
     * Cycles replayed from the run-ahead memo were recorded through
     * step(), which already set any bit they would set.
     */
    const KnobWitness &knobWitness() const { return witness_; }

    std::uint64_t preds() const { return preds_; }
    const std::vector<Word> &regs() const { return regs_; }
    const std::vector<Word> &scratchpad() const { return scratchpad_; }

  private:
    friend class CycleQueueView;

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

    /** Retroactive no-trigger settlement for @p n skipped cycles. */
    [[gnu::cold, gnu::noinline]] void
    traceSkippedCycles(std::uint64_t n) const;

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

    /**
     * The program's triggers compiled to instruction masks; also the
     * record of which queues any trigger watches (the wake sets).
     */
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
     * slot occupancy. busy()/canSleep()/inFlight() read it as a single
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

    /** Last step's trigger resolution found nothing eligible. */
    bool idleCycle_ = false;

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

    // Run-ahead memo (runAhead).
    static constexpr std::uint32_t kNoMemoNode = ~std::uint32_t{0};
    /**
     * The counters a recordable cycle can move besides cycles (one
     * each): a cycle that pushes or pops is never recorded, and no
     * fault injector is installed while the memo runs.
     */
    static constexpr std::array<std::uint64_t PerfCounters::*, 9>
        kMemoCounters = {
            &PerfCounters::retired,         &PerfCounters::quashed,
            &PerfCounters::predicateHazard, &PerfCounters::dataHazard,
            &PerfCounters::forbidden,       &PerfCounters::noTrigger,
            &PerfCounters::predicateWrites, &PerfCounters::predictions,
            &PerfCounters::mispredictions,
        };

    /** One datapath action of a recorded cycle. */
    struct MemoAction
    {
        const Instruction *inst = nullptr;
        /**
         * Where a replayed capture reads each operand: a register, the
         * immediate or a zero; null for an input queue head, which
         * goes through readSource().
         */
        std::array<const Word *, 2> srcs = {};
        Word *dst = nullptr;     ///< Register the writeback writes, if any.
        std::uint8_t entry = 0;  ///< Index into entries_.
        bool decode = false;     ///< Capture the operands.
        bool writeback = false;  ///< Then compute and commit the result.
    };

    /** One recorded cycle out of a node. */
    struct MemoEdge
    {
        std::uint32_t next = kNoMemoNode; ///< Successor node.
        /** Data actions in step() order; a writeback is always first. */
        std::array<MemoAction, 3> actions;
        std::uint8_t numActions = 0;
        std::uint8_t issued = 0; ///< Instructions issued (nextId_ step).
        bool stop = false;       ///< The episode ends after this cycle.
        std::array<std::uint8_t, kMemoCounters.size()> delta = {};
        /**
         * Replays not yet added to the counters and nextId_: settled
         * in bulk (settleReplays) before anything reads them.
         */
        std::uint64_t pending = 0;
    };

    /** A packed control state at a cycle boundary. */
    struct MemoNode
    {
        /** Key in RunAheadMemo::index: control state, then channel view. */
        const std::string *state = nullptr;
        bool recorded = false; ///< branch and one edge are set.
        /**
         * This state's one datapath predicate writeback, the branch
         * choosing the edge (the first action of either edge), or an
         * action with a null inst when the cycle has none.
         */
        MemoAction branch;
        std::array<MemoEdge, 2> edges; ///< By written bit; [0] if no branch.
    };

    /**
     * A step() being recorded: its actions, its branch bit, and the
     * counters and nextId_ it started from.
     */
    struct MemoRecording
    {
        MemoEdge edge;
        bool branch = false;
        bool bit = false;
        PerfCounters before;      ///< The counters when the step began.
        std::uint64_t nextId = 0; ///< nextId_ when the step began.
    };

    /** Per PE, for the fabric's lifetime; never shared. */
    struct RunAheadMemo
    {
        std::unordered_map<std::string, std::uint32_t> index;
        std::vector<MemoNode> nodes;
        /** This episode's frozen channel view, the key's suffix. */
        std::string view;
        /** Edges (2 * node + bit) with pending replays. */
        std::vector<std::uint32_t> unsettled;
        /** The step() being recorded, while recording_ is set. */
        MemoRecording recording;
    };

    /** Append the control state at a cycle boundary to @p key. */
    void packControl(std::string &key) const;
    /** Add the pending replays to the counters and nextId_. */
    void settleReplays();
    /** Settle, then restore the control fields from the current node. */
    void materialize();
    /** The node for the current state, added unless at the cap. */
    std::uint32_t findOrAddNode();
    /**
     * Key this episode's channel view and let the memo follow the PE
     * from its current state.
     */
    void engageMemo(bool sleepEnabled);
    /**
     * Replay the current node's recorded cycle, if it has one for this
     * cycle's branch bit and nothing in it would trap; the edge
     * replayed, or null, having changed nothing.
     */
    const MemoEdge *replayCycle();
    /** Operand @p k of @p action as a replayed capture reads it. */
    Word
    memoOperand(const MemoAction &action, unsigned k) const
    {
        return action.srcs[k] ? *action.srcs[k]
                              : readSource(action.inst->srcs[k],
                                           action.inst->imm);
    }
    /**
     * Replay @p edge's data actions from index @p first; false,
     * changing nothing, on a trap.
     */
    bool replayActions(const MemoEdge &edge, unsigned first);
    /**
     * Run this cycle through step() — materialized first, and recorded
     * while the memo follows the PE. True when it ends the episode;
     * @p retired is what the cycle retired.
     */
    bool stepCycle(bool sleepEnabled, std::uint64_t &retired);
    /** doDecode/doWriteback hook while recording_ is set. */
    void recordAction(const InFlight &entry, bool writeback, bool bit);
    /** Link the edge step() recorded out of node @p from. */
    void recordEdge(std::uint32_t from, bool stop);

    std::unique_ptr<RunAheadMemo> memo_;
    std::uint32_t memoNode_ = kNoMemoNode; ///< Current node; none = step().
    bool memoStale_ = false; ///< Control fields lag memoNode_.
    bool recording_ = false; ///< step() records into memo_->recording.

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

} // namespace tia

#endif // TIA_UARCH_PIPELINED_PE_HH
