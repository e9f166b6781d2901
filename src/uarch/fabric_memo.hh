/**
 * @file
 * The fabric control memo: CycleFabric::run() replays whole-fabric
 * cycles whose control work a step() already did once from the same
 * control state (docs/perf.md, "The fabric control memo").
 *
 * In the paper's PE, control (trigger resolution, hazards, issue,
 * prediction, flush) reads only control state and queue status; data
 * reaches it only through a datapath predicate write, the "branch". A
 * channel's occupancy and tags are control too, and so is when a
 * memory read port's held requests come due. So the fabric's control
 * state at a cycle boundary, together with the cycle's branch bits (at
 * most one per PE), fixes everything the cycle does apart from the
 * data words it moves. Following FastSim (Schnarr and Larus, ASPLOS
 * '98), the memo records each distinct such cycle once:
 *
 *  - A node is the packed control state at a cycle boundary: each PE's
 *    status (running or halted) and PipelinedPe::packControl, the
 *    running PEs in stepping order, each channel's occupancy, tags and
 *    whether it moved last cycle, and each read port's held requests
 *    (cycles until due, clamped at 0, and tag).
 *  - An edge is one recorded step(), chosen by the vector of that
 *    cycle's branch bits. It keeps the cycle's data actions in step()
 *    order (operand captures with their dequeues, then writebacks:
 *    ALU and scratchpad work, register writes, enqueues), each PE's
 *    counter deltas, and run()'s per-cycle bookkeeping (retirements,
 *    steps, whether any agent stayed active).
 *
 * A replayed cycle evaluates the node's branches and scratchpad bounds
 * first, so a cycle that would trap changes nothing and runs through
 * step() instead. It then performs the actions on the live data, steps
 * the memory ports (which move real tokens and may trap like step()
 * does), commits the channels and advances the clock. Control fields,
 * counters and issue ids lag while the memo replays; materialize()
 * settles the counter deltas in bulk and restores the control fields
 * from the current node before anything reads them. Edges are followed
 * by index; a state is hashed only after a recorded step().
 *
 * The memo lives and dies with its fabric and is never shared. It is
 * off under a trace sink, a fault injector and the reference
 * scheduler; the bare step() loop stays the oracle it is tested
 * against (tests/test_hot_path.cc).
 */

#ifndef TIA_UARCH_FABRIC_MEMO_HH
#define TIA_UARCH_FABRIC_MEMO_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.hh"
#include "uarch/counters.hh"
#include "uarch/pipelined_pe.hh"

namespace tia {

class CycleFabric;

class FabricMemo
{
  public:
    /**
     * Cycles a run() steps before it engages the memo, and between
     * lookups while the current state is not in a full memo: short
     * runs never pay for recording.
     */
    static constexpr Cycle kEngageAfter = 64;

    /**
     * Most control states one memo holds. At the cap it stops adding
     * nodes (it never clears mid-run); states past the frontier run
     * through step().
     */
    static constexpr std::size_t kNodeCap = 4096;

    explicit FabricMemo(CycleFabric &fabric);

    /** The memo stands at a known state and can try to replay. */
    bool following() const { return current_ != kNone; }

    /** run()'s per-cycle progress and activity marks. */
    struct RunMarks
    {
        std::uint64_t retired = 0; ///< totalRetired_ at the last active cycle.
        Cycle activity = 0;        ///< Clock after the last active cycle.
        std::uint64_t events = 0;  ///< Queue events at the last progress.
        Cycle progress = 0;        ///< Clock after the last progress.
    };

    /**
     * Replay recorded cycles from the current state, each picked by its
     * branch bits, keeping @p marks as run() does, until the clock
     * reaches @p limit, the next cycle is not recorded or would trap
     * before the memory ports (it is left untouched), or a cycle ends
     * @p window cycles after the last activity. Returns true in the
     * last case: the fabric has gone quiescent.
     */
    bool replay(Cycle limit, Cycle window, RunMarks &marks);

    /**
     * Run this cycle through the fabric's step(), recording it as an
     * edge out of the current state, and follow the state it reaches.
     */
    void stepRecorded();

    /**
     * From a live (materialized) fabric: find the current state, or add
     * it below the cap, and follow it.
     */
    void resume();

    /** Materialize and stop following (run() is about to return). */
    void
    leave()
    {
        materialize();
        current_ = kNone;
    }

    /** PipelinedPe::doDecode hook while recording. */
    void recordDecode(const PipelinedPe &pe, const PipelinedPe::InFlight &entry);

    /** PipelinedPe::doWriteback hook while recording. */
    void recordWriteback(const PipelinedPe &pe,
                         const PipelinedPe::InFlight &entry, Word result);

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** Most branches an edge's mask can hold. */
    static constexpr unsigned kMaxBranches = 32;

    /** The counters a cycle without a fault injector can move. */
    static constexpr std::array<std::uint64_t PerfCounters::*, 12>
        kCounters = {
            &PerfCounters::cycles,          &PerfCounters::retired,
            &PerfCounters::quashed,         &PerfCounters::predicateHazard,
            &PerfCounters::dataHazard,      &PerfCounters::forbidden,
            &PerfCounters::noTrigger,       &PerfCounters::predicateWrites,
            &PerfCounters::predictions,     &PerfCounters::mispredictions,
            &PerfCounters::dequeues,        &PerfCounters::enqueues,
        };

    enum ActionFlags : std::uint8_t
    {
        kDecode = 1,    ///< Capture the operands, then dequeue.
        kWriteback = 2, ///< Compute and commit the result.
        kCheck = 4,     ///< Evaluated before the cycle: may trap or branch.
        kBranch = 8,    ///< Writes a predicate: its bit picks the edge.
        kStore = 16,    ///< Writes the scratchpad.
        kToReg = 32,    ///< Writes its result to a register.
        kToQueue = 64,  ///< Enqueues its result.
    };

    /** One datapath action of a recorded cycle. */
    struct Action
    {
        PipelinedPe *pe = nullptr;
        const Instruction *inst = nullptr;
        /**
         * Where a capture reads each operand: a register, the
         * immediate or a zero; null for an input queue head.
         */
        std::array<const Word *, 2> srcs = {};
        std::uint8_t entry = 0; ///< Index into the PE's entries_.
        std::uint8_t flags = 0;
    };

    /** One PE's counter deltas over a recorded cycle. */
    struct PeDelta
    {
        std::uint16_t pe = 0;
        std::uint8_t issued = 0; ///< Issue ids taken (nextId_ step).
        std::array<std::uint8_t, kCounters.size()> counts = {};
    };

    /** One recorded cycle out of a node. */
    struct Edge
    {
        std::uint32_t next = kNone;    ///< Successor node.
        std::uint32_t sibling = kNone; ///< Next edge out of the same node.
        std::uint32_t mask = 0;        ///< Branch bits that pick it.
        std::uint32_t firstAction = 0;
        std::uint32_t firstDelta = 0;
        std::uint16_t numActions = 0;
        std::uint16_t numDeltas = 0;
        std::uint16_t steps = 0;   ///< PE steps the cycle executed.
        std::uint16_t retired = 0; ///< Instructions it retired.
        bool active = false;      ///< anyActivity() after the cycle.
        /** Replays not yet added to the counters (settle()). */
        std::uint64_t pending = 0;
    };

    /** A packed control state at a cycle boundary. */
    struct Node
    {
        std::uint32_t keyBegin = 0; ///< Offset of the key in keys_.
        std::uint32_t keyLength = 0;
        std::size_t hash = 0;
        std::uint32_t firstEdge = kNone;
        /**
         * Index in actions_ of the first edge's first kCheck action
         * (every edge out of a node has the same checks), or kNone.
         */
        std::uint32_t firstCheck = kNone;
        /** Some memory port holds or is offered a request. */
        bool ports = false;
    };

    /**
     * Some memory port may act this cycle: a read port holds a request
     * or has one waiting, or a write port has a pair waiting.
     */
    bool portsMayAct() const;
    /** The current state's key, packed from the live fabric. */
    void packState(std::string &key) const;
    /** The node holding @p key, added unless at the cap; or kNone. */
    std::uint32_t findOrAdd(const std::string &key);
    std::string_view keyOf(const Node &node) const;
    /** Operand @p k of @p action as a capture at this point reads it. */
    Word operand(const Action &action, unsigned k) const;
    /**
     * One cycle of replay(): the edge it replayed, or null having
     * changed nothing.
     */
    const Edge *replayCycle();
    /**
     * Make the fabric's control fields and counters exact: settle the
     * replayed counter deltas and restore the current state's control
     * fields. A no-op unless a replay ran since the last call.
     */
    void materialize();
    /** Add the pending replays to the counters, issue ids and steps. */
    void settle();

    CycleFabric &fabric_;
    std::vector<Node> nodes_;
    std::vector<Edge> edges_;
    std::vector<Action> actions_;
    std::vector<PeDelta> deltas_;
    std::string keys_;                 ///< Every node's key, back to back.
    std::vector<std::uint32_t> slots_; ///< Hash table: node id + 1, 0 free.
    std::vector<std::uint32_t> unsettled_; ///< Edges with pending replays.

    std::uint32_t current_ = kNone; ///< Node the fabric stands at.
    bool stale_ = false;            ///< Control fields lag current_.

    // The step() being recorded.
    std::vector<PerfCounters> before_; ///< Each PE's counters before it.
    std::vector<std::uint64_t> ids_;   ///< Each PE's nextId_ before it.
    std::vector<Action> recorded_;
    std::uint32_t recordedMask_ = 0;
    unsigned recordedBranches_ = 0;
    std::string key_;         ///< Scratch key, reused.
    std::size_t keyBytes_ = 0; ///< Most bytes a key can take.
};

} // namespace tia

#endif // TIA_UARCH_FABRIC_MEMO_HH
