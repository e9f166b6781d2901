/**
 * @file
 * Trigger resolution: the scheduler / priority-encoder pair at the
 * front end of every triggered PE (paper Figure 2).
 *
 * The scheduler compares each valid instruction's trigger against the
 * predicate state and a *view* of queue status, and selects the
 * highest-priority eligible instruction. The queue-status view is
 * abstract so the same resolution logic serves the functional
 * simulator (live occupancy) and the pipelined microarchitectures
 * (conservative or effective accounting, Section 5.3). The pipelined
 * PE resolves through a compiled TriggerEncoder, which evaluates all
 * triggers at once; schedule() is the reference it is tested against.
 *
 * Priority correctness under unresolved predicates: when an in-flight
 * datapath predicate write leaves a trigger's outcome unknown, no
 * lower-priority instruction may issue — the cycle is a predicate
 * hazard (Section 5.1).
 */

#ifndef TIA_SIM_SCHEDULER_HH
#define TIA_SIM_SCHEDULER_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/instruction.hh"
#include "core/types.hh"

namespace tia {

/** Abstract view of queue status as seen by a scheduler. */
class QueueStatusView
{
  public:
    virtual ~QueueStatusView() = default;

    /** Effective occupancy of input queue @p q (0 if conservatively empty). */
    virtual unsigned inputOccupancy(unsigned q) const = 0;

    /** Tag of the effective head of input queue @p q, if available. */
    virtual std::optional<Tag> inputHeadTag(unsigned q) const = 0;

    /** True if output queue @p q can accept one more token. */
    virtual bool outputHasSpace(unsigned q) const = 0;
};

/** Outcome of one trigger-resolution attempt. */
enum class ScheduleOutcome
{
    Fire,               ///< An instruction is eligible; index reported.
    BlockedOnPredicate, ///< Outcome depends on an unresolved predicate.
    None,               ///< Nothing is eligible this cycle.
};

struct ScheduleResult
{
    ScheduleOutcome outcome = ScheduleOutcome::None;
    unsigned index = 0; ///< Selected instruction (valid when Fire).
};

/**
 * Resolve triggers in priority order.
 *
 * @param instructions the PE's instruction store (priority order).
 * @param preds        current (possibly speculative) predicate state.
 * @param pendingPreds bitmask of predicates with in-flight, unresolved
 *                     datapath writes (always 0 with prediction on or
 *                     in the functional simulator).
 * @param view         queue status view.
 */
ScheduleResult schedule(const std::vector<Instruction> &instructions,
                        std::uint64_t preds, std::uint64_t pendingPreds,
                        const QueueStatusView &view);

/**
 * Evaluate all non-predicate trigger conditions (queue occupancy, tag
 * matches, source availability, destination space) for one instruction.
 */
bool queueConditionsHold(const Instruction &inst,
                         const QueueStatusView &view);

/**
 * A PE's triggers compiled into the priority encoder of paper Figure 2:
 * every condition becomes a 64-bit mask over the instruction store, so
 * one resolution evaluates all triggers at once and picks the lowest
 * eligible index with a count-trailing-zeros, with exactly the
 * priority semantics of schedule() (asserted by tests/test_hot_path.cc).
 *
 * The predicate word is matched a byte at a time: for each byte value
 * a 256-entry table holds the instructions whose on/off sets accept it,
 * so predicate matching costs one lookup per byte of NPreds. Queue
 * conditions become per-queue masks: the instructions that need an
 * input non-empty, the ones whose tag checks fail for each head tag,
 * and the ones that need an output to have space.
 *
 * Immutable once built; PipelinedPe builds one at construction.
 */
class TriggerEncoder
{
  public:
    /** Largest instruction store one mask word can cover. */
    static constexpr unsigned kMaxInstructions = 64;

    /**
     * Compile @p program (already validated against @p params).
     * @throws FatalError if the program exceeds kMaxInstructions,
     *         NPreds exceeds 64 or a queue index exceeds the 32-bit
     *         queue masks.
     */
    TriggerEncoder(const ArchParams &params,
                   const std::vector<Instruction> &program);

    /** Input queues referenced by any trigger (bit per queue). */
    std::uint32_t inputsUsed() const { return inputsUsed_; }

    /** Output queues referenced by any trigger (bit per queue). */
    std::uint32_t outputsUsed() const { return outputsUsed_; }

    /**
     * Instructions whose queue conditions fail, asking about each
     * watched queue once: @p inputHead(q) returns input q's effective
     * head tag, or nullopt while it is effectively empty, and
     * @p outputSpace(q) whether output q can take one more token.
     */
    template <typename InputHeadFn, typename OutputSpaceFn>
    std::uint64_t queueFail(InputHeadFn &&inputHead,
                            OutputSpaceFn &&outputSpace) const;

    /**
     * Resolve triggers: bit-identical to schedule() on the compiled
     * program and a consistent view. @p failMask is a callable
     * returning this cycle's queueFail() mask. It is invoked at most
     * once, and only when a predicate-eligible trigger with queue
     * requirements outranks every predicate-eligible trigger without
     * any, so a cycle won by a pure register/predicate trigger
     * inspects no queue at all.
     */
    template <typename FailFn>
    ScheduleResult resolve(std::uint64_t preds, std::uint64_t pending,
                           FailFn &&failMask) const;

  private:
    /**
     * Valid instructions not ruled out by a resolved predicate bit of
     * @p preds; bits of @p pending may still resolve either way.
     */
    std::uint64_t predicatePossible(std::uint64_t preds,
                                    std::uint64_t pending) const;

    std::uint64_t valid_ = 0;     ///< Valid instructions.
    std::uint64_t queueNeed_ = 0; ///< Instructions with a queue condition.
    unsigned predBytes_ = 0;      ///< Bytes of the predicate word matched.
    unsigned tagSlots_ = 0;       ///< Per-queue tagFail_ entries.
    std::uint32_t inputsUsed_ = 0;
    std::uint32_t outputsUsed_ = 0;
    /** predTable_[256 * b + v]: instructions accepting byte b == v. */
    std::vector<std::uint64_t> predTable_;
    /** refs_[p]: instructions whose trigger names predicate p. */
    std::array<std::uint64_t, 64> refs_{};
    /** needIn_[q]: instructions that need input q non-empty. */
    std::array<std::uint64_t, 32> needIn_{};
    /** needOut_[q]: instructions that need space on output q. */
    std::array<std::uint64_t, 32> needOut_{};
    /**
     * tagFail_[tagSlots_ * q + t]: instructions with a tag check on
     * input q that head tag t fails. The last slot of each queue
     * stands for every tag above MaxTag, which no check names.
     */
    std::vector<std::uint64_t> tagFail_;
};

inline std::uint64_t
TriggerEncoder::predicatePossible(std::uint64_t preds,
                                  std::uint64_t pending) const
{
    std::uint64_t possible = valid_;
    const std::uint64_t *table = predTable_.data();
    for (unsigned b = 0; b < predBytes_; ++b, table += 256) {
        const unsigned value = (preds >> (8 * b)) & 0xffu;
        const unsigned open = (pending >> (8 * b)) & 0xffu;
        if (open == 0) {
            possible &= table[value];
            continue;
        }
        // A trigger survives a resolved-bit test iff some assignment
        // of the byte's pending bits is accepted: on/off sets are
        // disjoint, so the trigger's own wish for each pending bit is
        // one of the assignments. OR over all of them (at most 2^3 at
        // this PE's pipeline depth).
        std::uint64_t any = 0;
        unsigned assign = 0;
        do {
            any |= table[(value & ~open) | assign];
            assign = (assign - open) & open;
        } while (assign != 0);
        possible &= any;
    }
    return possible;
}

template <typename InputHeadFn, typename OutputSpaceFn>
inline std::uint64_t
TriggerEncoder::queueFail(InputHeadFn &&inputHead,
                          OutputSpaceFn &&outputSpace) const
{
    std::uint64_t fail = 0;
    for (std::uint32_t rest = inputsUsed_; rest != 0; rest &= rest - 1) {
        const unsigned q = static_cast<unsigned>(std::countr_zero(rest));
        const std::optional<Tag> head = inputHead(q);
        if (head.has_value()) {
            const unsigned tag = std::min<unsigned>(*head, tagSlots_ - 1);
            fail |= tagFail_[tagSlots_ * q + tag];
        } else {
            fail |= needIn_[q];
        }
    }
    for (std::uint32_t rest = outputsUsed_; rest != 0; rest &= rest - 1) {
        const unsigned q = static_cast<unsigned>(std::countr_zero(rest));
        if (!outputSpace(q))
            fail |= needOut_[q];
    }
    return fail;
}

template <typename FailFn>
inline ScheduleResult
TriggerEncoder::resolve(std::uint64_t preds, std::uint64_t pending,
                        FailFn &&failMask) const
{
    std::uint64_t eligible = predicatePossible(preds, pending);
    // Only queue-needing candidates below the lowest queue-free one
    // can change the winner; with none, status is never fetched.
    const std::uint64_t queueFree = eligible & ~queueNeed_;
    const std::uint64_t below = ~queueFree & (queueFree - 1);
    if ((eligible & queueNeed_ & below) != 0)
        eligible &= ~failMask();
    if (eligible == 0)
        return {ScheduleOutcome::None, 0};

    const unsigned winner = static_cast<unsigned>(std::countr_zero(eligible));
    // Priority forbids issuing past a winner whose trigger names a
    // pending predicate: its outcome is not yet known.
    for (std::uint64_t rest = pending; rest != 0; rest &= rest - 1) {
        if ((refs_[std::countr_zero(rest)] >> winner) & 1u)
            return {ScheduleOutcome::BlockedOnPredicate, winner};
    }
    return {ScheduleOutcome::Fire, winner};
}

} // namespace tia

#endif // TIA_SIM_SCHEDULER_HH
