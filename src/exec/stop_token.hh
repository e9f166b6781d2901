/**
 * @file
 * Cooperative cancellation for long-running simulations.
 *
 * A StopSource owns a cancellation flag plus an optional wall-clock
 * deadline; StopTokens are cheap copyable views of it. The hot loops
 * that honor cancellation (CycleFabric::run, and through it every
 * runCycle / runCycleMatrix task on a SweepPipeline thread) poll
 * stopRequested() at cycle-batch granularity, so a deadline-expired or
 * client-abandoned simulation frees its worker thread within a few
 * thousand simulated cycles instead of running out its full budget —
 * the property tia-serve relies on to never wedge a worker.
 *
 * The deadline is set once, before the token is shared with other
 * threads (setDeadline is not synchronized); the stop flag itself is
 * an atomic and may be raised from any thread at any time. A fired
 * token never un-fires: the flag is sticky and the deadline clock is
 * monotonic.
 */

#ifndef TIA_EXEC_STOP_TOKEN_HH
#define TIA_EXEC_STOP_TOKEN_HH

#include <atomic>
#include <chrono>
#include <memory>

namespace tia {

class StopSource;

/** Read-only view of a StopSource; default-constructed = "never stop". */
class StopToken
{
  public:
    StopToken() = default;

    /** True when attached to a source (a stop could ever be requested). */
    bool possible() const { return state_ != nullptr; }

    /** True once the source fired or its deadline passed. */
    bool
    stopRequested() const
    {
        return why() != nullptr;
    }

    /**
     * Why the token fired: "stop requested", "deadline expired", or
     * nullptr when it has not fired (or is detached).
     */
    const char *
    why() const
    {
        return state_ == nullptr ? nullptr : whyOf(*state_);
    }

    /**
     * A token that fires as soon as either input fires. The sweep
     * pipeline uses this to merge a caller's deadline token with its
     * internal fail-fast source, so one sibling's exception cancels
     * the rest without disturbing the caller's own cancellation. When
     * one input is detached the other is returned as-is (no overhead);
     * merging two detached tokens yields a detached token.
     */
    static StopToken
    anyOf(StopToken a, StopToken b)
    {
        if (!a.possible())
            return b;
        if (!b.possible())
            return a;
        auto state = std::make_shared<State>();
        state->parentA = a.state_;
        state->parentB = b.state_;
        return StopToken(std::move(state));
    }

  private:
    friend class StopSource;

    struct State
    {
        std::atomic<bool> stop{false};
        bool hasDeadline = false;
        std::chrono::steady_clock::time_point deadline{};
        /** anyOf links (set once, before sharing; never mutated). */
        std::shared_ptr<const State> parentA;
        std::shared_ptr<const State> parentB;
    };

    static const char *
    whyOf(const State &state)
    {
        if (state.stop.load(std::memory_order_relaxed))
            return "stop requested";
        if (state.hasDeadline &&
            std::chrono::steady_clock::now() >= state.deadline)
            return "deadline expired";
        if (state.parentA != nullptr) {
            if (const char *why = whyOf(*state.parentA))
                return why;
        }
        if (state.parentB != nullptr) {
            if (const char *why = whyOf(*state.parentB))
                return why;
        }
        return nullptr;
    }

    explicit StopToken(std::shared_ptr<const State> state)
        : state_(std::move(state))
    {
    }

    std::shared_ptr<const State> state_;
};

/** Owner side: request a stop and/or arm a deadline. */
class StopSource
{
  public:
    StopSource() : state_(std::make_shared<StopToken::State>()) {}

    /** Raise the sticky stop flag (thread-safe, idempotent). */
    void
    requestStop()
    {
        state_->stop.store(true, std::memory_order_relaxed);
    }

    /**
     * Arm an absolute deadline. Must be called before token() results
     * are handed to other threads — the deadline fields are plain.
     */
    void
    setDeadline(std::chrono::steady_clock::time_point deadline)
    {
        state_->hasDeadline = true;
        state_->deadline = deadline;
    }

    /** Convenience: deadline @p ms milliseconds from now. */
    void
    setDeadlineAfterMs(std::uint64_t ms)
    {
        setDeadline(std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(ms));
    }

    bool stopRequested() const { return token().stopRequested(); }

    StopToken token() const { return StopToken(state_); }

  private:
    std::shared_ptr<StopToken::State> state_;
};

} // namespace tia

#endif // TIA_EXEC_STOP_TOKEN_HH
