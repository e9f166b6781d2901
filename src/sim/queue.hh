/**
 * @file
 * Tagged data queues: the communication channels between PEs.
 *
 * Each entry carries a data word plus a small programmable tag
 * (Section 2.1). Queues support deep peeking ("head and neck") to serve
 * the effective-queue-status optimization of Section 5.3, and a
 * cycle-start snapshot discipline so that all agents in a cycle observe
 * a consistent, RTL-like view of occupancy: pushes performed during a
 * cycle become visible only at the next cycle boundary.
 *
 * Storage is a fixed ring buffer sized once at construction — the
 * committed entries followed by this cycle's deferred pushes occupy one
 * contiguous (mod capacity) window, so steady-state operation performs
 * no allocation. An optional QueueEventLog lets the owning fabric
 * observe pushes and pops for its per-cycle channel upkeep and
 * incremental progress accounting (see uarch/cycle_fabric.hh); the
 * log is a concrete inline structure, not a virtual observer — every
 * push and pop pays for the recording.
 */

#ifndef TIA_SIM_QUEUE_HH
#define TIA_SIM_QUEUE_HH

#include <optional>
#include <vector>

#include "core/logging.hh"
#include "core/types.hh"
#include "sim/fault.hh"

namespace tia {

/**
 * Log of queue activity (see file comment). record() fires once per
 * token accepted into the deferred-push window and once per token
 * popped. Dropped (faulted) tokens do not fire it.
 *
 * The owner drains the dirty channel list between cycles (clearDirty);
 * each channel appears in it at most once per cycle, whether it was
 * pushed, popped or both. progressEvents() accumulates over the whole
 * run.
 */
class QueueEventLog
{
  public:
    explicit QueueEventLog(unsigned channels) : dirtyFlag_(channels, 0)
    {
        dirty_.reserve(channels);
    }

    /** Channel @p channel accepted or gave up a token this cycle. */
    void
    record(unsigned channel)
    {
        ++progressEvents_;
        if (!dirtyFlag_[channel]) {
            dirtyFlag_[channel] = 1;
            dirty_.push_back(channel);
        }
    }

    /** True when @p channel is in dirtyChannels(). */
    bool dirty(unsigned channel) const { return dirtyFlag_[channel] != 0; }

    /** Channels with any activity since the last clearDirty(). */
    const std::vector<unsigned> &dirtyChannels() const { return dirty_; }

    /** Pushes + pops ever recorded. */
    std::uint64_t progressEvents() const { return progressEvents_; }

    void
    clearDirty()
    {
        for (unsigned ch : dirty_)
            dirtyFlag_[ch] = 0;
        dirty_.clear();
    }

  private:
    std::vector<std::uint8_t> dirtyFlag_; ///< In dirty_, by channel.
    std::vector<unsigned> dirty_;
    std::uint64_t progressEvents_ = 0;
};

/**
 * A bounded FIFO of tagged tokens with single producer and single
 * consumer, deferred-push semantics and cycle-start occupancy
 * snapshots.
 */
class TaggedQueue
{
  public:
    explicit TaggedQueue(unsigned capacity)
        : capacity_(capacity), ring_(capacity)
    {
        fatalIf(capacity == 0, "queue capacity must be positive");
    }

    /** Queue capacity in entries. */
    unsigned capacity() const { return capacity_; }

    /** Live occupancy (committed entries only). */
    unsigned size() const { return committed_; }

    /** Occupancy at the start of the current cycle. */
    unsigned snapshotSize() const { return snapshotSize_; }

    /** Live emptiness. */
    bool empty() const { return committed_ == 0; }

    /**
     * Peek at depth @p depth (0 = head, 1 = neck, ...), using live
     * contents; returns nullopt beyond the live occupancy.
     */
    std::optional<Token>
    peek(unsigned depth = 0) const
    {
        if (depth >= committed_)
            return std::nullopt;
        return ring_[wrap(head_ + depth)];
    }

    /**
     * Pointer form of peek() for the per-cycle scheduler path; the
     * token stays valid until the next pop or commit.
     */
    const Token *
    peekPtr(unsigned depth = 0) const
    {
        return depth < committed_ ? &ring_[wrap(head_ + depth)] : nullptr;
    }

    /** Pop the head. Takes effect immediately (within-cycle). */
    Token
    pop()
    {
        panicIf(committed_ == 0, "pop from empty queue");
        Token token = ring_[head_];
        head_ = wrap(head_ + 1);
        --committed_;
        ++popsThisCycle_;
        if (log_)
            log_->record(channelId_);
        return token;
    }

    /** Pops performed since the last beginCycle(). */
    unsigned popsThisCycle() const { return popsThisCycle_; }

    /**
     * Push a token; deferred until the next commit() so other agents
     * evaluated later in the same cycle do not observe it early.
     */
    void
    push(const Token &token)
    {
        Token delivered = token;
        if (faults_) {
            const auto action = faults_->onPush(channelId_, delivered);
            if (action == FaultInjector::PushAction::Drop)
                return;
            if (action == FaultInjector::PushAction::Duplicate &&
                committed_ + pending_ + 1 < capacity_) {
                append(delivered);
            }
        }
        panicIf(committed_ + pending_ >= capacity_,
                "push to full queue (capacity ", capacity_,
                ") — a hazard check failed");
        append(delivered);
    }

    /** Begin a cycle: record the occupancy snapshot. */
    void
    beginCycle()
    {
        snapshotSize_ = size();
        popsThisCycle_ = 0;
    }

    /** End a cycle: make this cycle's pushes visible. */
    void
    commit()
    {
        committed_ += pending_;
        pending_ = 0;
    }

    /** Immediate push for the functional simulator (no deferral). */
    void
    pushImmediate(const Token &token)
    {
        panicIf(committed_ >= capacity_, "push to full queue");
        panicIf(pending_ != 0,
                "pushImmediate with deferred pushes pending");
        ring_[wrap(head_ + committed_)] = token;
        ++committed_;
        if (committed_ > highWater_)
            highWater_ = committed_;
        if (log_)
            log_->record(channelId_);
    }

    /**
     * Highest occupancy ever reached (committed + deferred pushes) —
     * the channel-sizing signal the observability layer reports.
     */
    unsigned highWater() const { return highWater_; }

    /** Number of pushes from this cycle awaiting commit(). */
    unsigned pendingPushes() const { return pending_; }

    /**
     * Install (or clear) a fault injector, consulted on every push
     * (see sim/fault.hh); @p id names this channel.
     */
    void
    setFaultInjector(FaultInjector *faults, unsigned id)
    {
        faults_ = faults;
        channelId_ = id;
    }

    /** Install (or clear) an event log; @p id names this channel. */
    void
    setEventLog(QueueEventLog *log, unsigned id)
    {
        log_ = log;
        channelId_ = id;
    }

    /**
     * True while a fault forces this queue to report itself empty.
     * Status faults warp only what schedulers and ports observe: the
     * queue contents stay intact, so execution resumes unharmed when
     * the fault window closes.
     */
    bool
    faultStuckEmpty() const
    {
        return faults_ && faults_->stuckEmpty(channelId_);
    }

    /**
     * True while a fault forces this queue to report itself full; the
     * contents stay intact, as for faultStuckEmpty().
     */
    bool
    faultStuckFull() const
    {
        return faults_ && faults_->stuckFull(channelId_);
    }

  private:
    /** Reduce an offset below 2*capacity into [0, capacity). */
    unsigned
    wrap(unsigned offset) const
    {
        return offset >= capacity_ ? offset - capacity_ : offset;
    }

    /** Place a token in the deferred-push window and count it. */
    void
    append(const Token &token)
    {
        ring_[wrap(head_ + committed_ + pending_)] = token;
        ++pending_;
        if (committed_ + pending_ > highWater_)
            highWater_ = committed_ + pending_;
        if (log_)
            log_->record(channelId_);
    }

    unsigned capacity_;
    std::vector<Token> ring_;
    unsigned head_ = 0;      ///< Ring index of the committed head.
    unsigned committed_ = 0; ///< Committed (visible) occupancy.
    unsigned pending_ = 0;   ///< Deferred pushes awaiting commit().
    unsigned snapshotSize_ = 0;
    unsigned popsThisCycle_ = 0;
    unsigned highWater_ = 0; ///< Max committed_ + pending_ ever seen.
    FaultInjector *faults_ = nullptr;
    QueueEventLog *log_ = nullptr;
    unsigned channelId_ = 0;
};

} // namespace tia

#endif // TIA_SIM_QUEUE_HH
