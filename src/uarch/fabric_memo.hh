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
 *    status (running or halted) and PipelinedPe::packControl, each
 *    channel's occupancy and tags, and each read port's held requests
 *    (cycles until due, clamped at 0, and tag). Within one memo the
 *    status bytes fix the PEs' stepping order, since each PE halts
 *    once; and a channel's cycle ends at its commit(), so nothing else
 *    of it carries over to the next cycle.
 *  - An edge is one recorded step(), chosen by the vector of that
 *    cycle's branch bits. It keeps the cycle's data actions in step()
 *    order (operand captures with their dequeues, then writebacks:
 *    ALU and scratchpad work, register writes, enqueues), then what
 *    each memory port did (a read port's delivery and accepted address,
 *    a write port's store, read off the ports' move counts), each PE's
 *    counter deltas, and run()'s
 *    bookkeeping (retirements, queue events, whether any agent stayed
 *    active).
 *  - A superblock is an edge plus its straight successors: while the
 *    next node is straight (no checks, so exactly one edge), its edge
 *    follows, up to kSuperblockCap cycles. Its figures are summed over
 *    its cycles, with where its last activity and last queue event
 *    fall. An edge's superblock is built the second time the edge is
 *    replayed and never changes: a straight node's one edge is fixed.
 *    An edge alone is a superblock of one cycle.
 *
 * A replay lookup evaluates the node's branches and scratchpad bounds,
 * picks the edge, and runs the edge's superblock: cut short at the
 * run's budget or stop poll, and replaced by the edge alone unless the
 * quiescence window stays open past its end even if none of its cycles
 * is active, so every exit lands on the cycle where the step loop's
 * does. Each cycle first checks its memory ports' addresses, so a
 * cycle that would trap changes nothing and runs through step()
 * instead. The actions move tokens with the channels' replay
 * operations (sim/queue.hh), which keep no pop count, deferred window
 * or event log, and leave each channel as its commit() does: a
 * channel's cycle ends there, so no channel state needs putting back.
 * Control fields, counters and issue ids lag while the memo replays;
 * materialize() settles the counter deltas in bulk and restores the
 * control fields from the current node. Edges are followed by index; a
 * state is hashed only after a recorded step().
 *
 * The memo lives and dies with its fabric and is never shared. It is
 * off under a trace sink and a fault injector; the bare step() loop
 * stays the oracle it is tested against (tests/test_hot_path.cc).
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

    /** Most cycles one superblock runs. */
    static constexpr unsigned kSuperblockCap = 64;

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
     * Replay recorded cycles from the current state, a superblock per
     * lookup, keeping @p marks as run() does, until the clock reaches
     * @p limit, the next cycle is not recorded or would trap (it is
     * left untouched), or a cycle ends @p window cycles after the last
     * activity. Returns true in the last case: the fabric has gone
     * quiescent.
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
        // PE actions.
        kDecode = 1,    ///< Capture the operands, then dequeue.
        kWriteback = 2, ///< Compute and commit the result.
        kCheck = 4,     ///< Evaluated before the cycle: may trap or branch.
        kBranch = 8,    ///< Writes a predicate: its bit picks the edge.
        kStore = 16,    ///< Writes the scratchpad.
        kToReg = 32,    ///< Writes its result to a register.
        kToQueue = 64,  ///< Enqueues its result.
    };

    /** The flags of a port action: what the port does. */
    enum PortMove : std::uint8_t
    {
        kDeliver = 1, ///< Read port: deliver the oldest held response.
        kAccept = 2,  ///< Read port: accept the head address.
        kWrite = 3,   ///< Write port: store the head pair.
    };

    /**
     * One action of a recorded cycle: a PE's datapath work, or (after
     * every PE action, with pe null) a memory port's move.
     */
    struct Action
    {
        PipelinedPe *pe = nullptr;
        const Instruction *inst = nullptr;
        /**
         * Where a capture reads each operand: a register, the
         * immediate or a zero; null for an input queue head.
         */
        std::array<const Word *, 2> srcs = {};
        /** Index into the PE's entries_, or the port's index. */
        std::uint16_t entry = 0;
        std::uint8_t flags = 0;
    };

    /** One PE's counter deltas over a superblock. */
    struct PeDelta
    {
        std::uint16_t pe = 0;
        std::uint16_t issued = 0; ///< Issue ids taken (nextId_ step).
        std::array<std::uint16_t, kCounters.size()> counts = {};
    };

    /** Most a counter moves in one recorded cycle. */
    static constexpr unsigned kMaxCycleDelta = 0xff;
    static_assert(kSuperblockCap * kMaxCycleDelta <= 0xffff,
                  "a superblock's counter sums must fit a PeDelta");

    /**
     * One or more consecutive recorded cycles replayed as a unit: an
     * edge alone, or a superblock. Its figures are summed over its
     * cycles.
     */
    struct Superblock
    {
        /** Replays not yet added to the counters (settle()). */
        std::uint64_t pending = 0;
        std::uint32_t last = 0; ///< Edge of its last cycle.
        std::uint32_t firstDelta = 0;
        std::uint32_t retired = 0; ///< Instructions its cycles retired.
        std::uint32_t events = 0;  ///< Queue events (pushes and pops).
        std::uint16_t numDeltas = 0;
        std::uint16_t length = 1; ///< Cycles.
        /**
         * Cycles up to and including the last one that retired or
         * ended with some agent active (anyActivity()); 0 if none did.
         */
        std::uint16_t lastActive = 0;
        /** Cycles up to and including the last with a queue event. */
        std::uint16_t lastEvent = 0;
    };

    /**
     * Marks a reference to a superblock as an edge id: that edge alone.
     * Any other reference is an index into superblocks_.
     */
    static constexpr std::uint32_t kAlone = std::uint32_t{1} << 31;

    /** One recorded cycle out of a node. */
    struct Edge
    {
        std::uint32_t next = kNone;    ///< Successor node.
        std::uint32_t sibling = kNone; ///< Next edge out of the same node.
        std::uint32_t mask = 0;        ///< Branch bits that pick it.
        std::uint32_t firstAction = 0;
        std::uint16_t numActions = 0; ///< PE actions.
        std::uint8_t numPorts = 0;    ///< Port actions after them.
        std::uint8_t replays = 0;     ///< Lookups that picked it, to 2.
        /** Its superblock, kNone until built. */
        std::uint32_t superblock = kNone;
        Superblock alone; ///< The edge alone.
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
    };

    /** The current state's key, packed from the live fabric. */
    void packState(std::string &key) const;
    /** The node holding @p key, added unless at the cap; or kNone. */
    std::uint32_t findOrAdd(const std::string &key);
    std::string_view keyOf(const Node &node) const;
    /** Operand @p k of @p action as a capture at this point reads it. */
    Word operand(const Action &action, unsigned k) const;
    /**
     * The edge out of the current node that the node's branch bits
     * pick, or kNone if none is recorded or a check would trap.
     */
    std::uint32_t pickEdge() const;
    /** The superblock starting with edge @p id, built now. */
    std::uint32_t buildSuperblock(std::uint32_t id);
    /** The superblock @p ref names (kAlone). */
    Superblock &
    superblock(std::uint32_t ref)
    {
        return ref & kAlone ? edges_[ref & ~kAlone].alone : superblocks_[ref];
    }
    /**
     * Perform the actions of up to @p length cycles from edge @p id on.
     * Returns the cycles performed: fewer only before a cycle whose
     * memory port address is out of bounds.
     */
    unsigned perform(std::uint32_t id, unsigned length);
    /**
     * Account for superblock @p ref, just performed: advance the clock,
     * the current node and @p marks.
     */
    void account(std::uint32_t ref, RunMarks &marks);
    /**
     * Make the fabric's control fields and counters exact: settle the
     * replayed counter deltas and restore the current state's control
     * fields. A no-op unless a replay ran since the last call (the
     * control fields lag current_ exactly while some superblock is
     * unsettled).
     */
    void materialize();
    /**
     * Add the pending replays to the counters, issue ids and replay
     * statistics; a PE steps once per cycle it counts.
     */
    void settle();

    CycleFabric &fabric_;
    std::vector<Node> nodes_;
    std::vector<Edge> edges_;
    std::vector<Action> actions_;
    std::vector<PeDelta> deltas_;
    /** Every superblock longer than its first edge. */
    std::vector<Superblock> superblocks_;
    std::string keys_;                 ///< Every node's key, back to back.
    std::vector<std::uint32_t> slots_; ///< Hash table: node id + 1, 0 free.
    /** Superblocks with pending replays (kAlone). */
    std::vector<std::uint32_t> unsettled_;

    std::uint32_t current_ = kNone; ///< Node the fabric stands at.

    // The step() being recorded.
    std::vector<PerfCounters> before_; ///< Each PE's counters before it.
    std::vector<std::uint64_t> ids_;   ///< Each PE's nextId_ before it.
    /** Each port's move counts before it, read ports first. */
    std::vector<std::uint64_t> portCounts_;
    std::vector<PeDelta> sums_; ///< Scratch per-PE sums, reused.
    std::vector<Action> recorded_;
    std::uint32_t recordedMask_ = 0;
    unsigned recordedBranches_ = 0;
    std::string key_;         ///< Scratch key, reused.
    std::size_t keyBytes_ = 0; ///< Most bytes a key can take.
};

} // namespace tia

#endif // TIA_UARCH_FABRIC_MEMO_HH
