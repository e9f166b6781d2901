/**
 * @file
 * SweepPipeline: serial generate → parallel simulate → serial in-order
 * sink, after TBB's parallel_pipeline (SNIPPETS.md Snippet 1). It is
 * the one parallel executor behind every sweep surface (the CPI
 * matrix, tia-sim's multi-uarch fan-out and the serve layer's `sweep`
 * method).
 *
 * The calling thread plays the two serial stages: it submits task
 * indices in order (bounded by an in-flight window, like TBB's token
 * cap) and, between submissions, waits for the *next-in-order* result
 * and hands it to the sink. Aggregation, JSON assembly and metrics
 * entries in the sink therefore overlap simulation instead of
 * trailing it.
 *
 * Guarantees, pinned by tests/test_sweep_pipeline.cc:
 *
 *  - **Order**: sink(i, value) is invoked for i = 0, 1, 2, … with no
 *    gaps and no reordering, regardless of completion order, so
 *    results are bit-identical for every jobs count.
 *  - **Serial reference**: jobs == 1 degenerates to the plain loop
 *    `for i: sink(i, fn(i))` on the calling thread.
 *  - **Fail-fast**: tasks get a StopToken from an internal fail-fast
 *    source (fn may be fn(i) or fn(i, cancel)). The first exception —
 *    from a task or from the sink — stops generation, cancels
 *    in-flight token-aware siblings, skips queued token-less ones,
 *    drains, and is rethrown (the lowest-index one, matching serial
 *    order among tasks that ran). After a failure no further results
 *    are sunk.
 *  - **Every index runs**: barring a failure, run() generates and
 *    sinks all of [0, count). A caller's CycleRunOptions::stop
 *    deadline token cancels the *tasks themselves*, not the pipeline:
 *    a deadline-cancelled sweep still fills every slot (with
 *    RunStatus::Cancelled values).
 */

#ifndef TIA_EXEC_PIPELINE_HH
#define TIA_EXEC_PIPELINE_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/stop_token.hh"
#include "exec/thread_pool.hh"

namespace tia {

namespace detail {

/** Invoke a sweep task, passing the cancel token when fn accepts it. */
template <typename Fn>
auto
invokeSweepTask(Fn &fn, std::size_t i, const StopToken &cancel)
{
    if constexpr (std::is_invocable_v<Fn &, std::size_t, StopToken>)
        return fn(i, cancel);
    else
        return fn(i);
}

/** Result type of a sweep task (with or without the token parameter). */
template <typename Fn>
using SweepTaskResult =
    decltype(invokeSweepTask(std::declval<Fn &>(), std::size_t{},
                             std::declval<const StopToken &>()));

} // namespace detail

/** Outcome of one SweepPipeline::run (no values — the sink saw them). */
struct PipelineResult
{
    unsigned jobs = 1;   ///< Worker threads actually used.
    double wallMs = 0.0; ///< Wall-clock time of the whole run().
};

class SweepPipeline
{
  public:
    /** @param jobs simulate-stage workers; 0 = defaultConcurrency. */
    explicit SweepPipeline(unsigned jobs = 0)
        : jobs_(jobs == 0 ? ThreadPool::defaultConcurrency() : jobs)
    {
    }

    unsigned jobs() const { return jobs_; }

    /**
     * Run the pipeline over [0, count): evaluate @p fn on the worker
     * pool and deliver each result to @p sink (called as
     * sink(i, T&&)) strictly in index order, overlapped with later
     * tasks. @p fn must be a pure function of i, safe to call
     * concurrently for distinct indices, and may take a second
     * StopToken parameter for fail-fast cancellation (see the file
     * comment). @p sink runs on the calling thread only.
     */
    template <typename Fn, typename Sink>
    PipelineResult
    run(std::size_t count, Fn &&fn, Sink &&sink) const
    {
        using T = detail::SweepTaskResult<Fn>;
        const auto start = std::chrono::steady_clock::now();

        PipelineResult result;
        result.jobs = count < jobs_ ? static_cast<unsigned>(
                                          count == 0 ? 1 : count)
                                    : jobs_;

        if (result.jobs <= 1) {
            // Serial reference: generate, simulate and sink one index
            // at a time; the first exception propagates unwrapped.
            for (std::size_t i = 0; i < count; ++i)
                sink(i, detail::invokeSweepTask(fn, i, StopToken{}));
            result.wallMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            return result;
        }

        // In-flight window: how far the generator may run ahead of the
        // sink. It counts buffered results, not worker slots. It must
        // exceed the number of cells that finish while the oldest one
        // is still running, or one long head cell (gcd on a 4-stage
        // pipeline runs ~823k cycles) idles every other worker. On a
        // 4-vCPU host a cold --jobs 4 paper sweep took a median
        // 1.7-1.8 s with a window of 8 (2 * jobs) and 0.95-1.1 s with
        // 32, 64 or 128, for the same CPU time (docs/perf.md). What
        // bounds it is memory: up to `window` finished results wait in
        // their slots for the sink.
        const std::size_t window =
            std::max<std::size_t>(16 * result.jobs, 64);

        struct Slot
        {
            std::optional<T> value;
            std::exception_ptr error;
            bool done = false;
        };
        std::vector<Slot> slots(window);
        std::mutex mutex;
        std::condition_variable slotDone;
        StopSource failFast;
        const StopToken cancel = failFast.token();
        std::atomic<bool> failed{false};
        // (index, error) in discovery order; rethrow the lowest index.
        std::vector<std::pair<std::size_t, std::exception_ptr>> errors;

        {
            ThreadPool pool(result.jobs);
            std::size_t submitted = 0;
            std::size_t next = 0; // next index owed to the sink

            while (next < count) {
                // Serial generator stage: top up the window in order.
                while (submitted < count &&
                       submitted - next < window &&
                       !failed.load(std::memory_order_relaxed)) {
                    const std::size_t i = submitted++;
                    pool.submit([&, i] {
                        Slot &slot = slots[i % window];
                        try {
                            if constexpr (std::is_invocable_v<
                                              Fn &, std::size_t,
                                              StopToken>) {
                                slot.value.emplace(fn(i, cancel));
                            } else if (!failed.load(
                                           std::memory_order_relaxed)) {
                                slot.value.emplace(fn(i));
                            }
                        } catch (...) {
                            slot.error = std::current_exception();
                            failed.store(true,
                                         std::memory_order_relaxed);
                            failFast.requestStop();
                        }
                        {
                            std::lock_guard<std::mutex> lock(mutex);
                            slot.done = true;
                        }
                        slotDone.notify_one();
                    });
                }
                if (submitted == next)
                    break; // failed with nothing left in flight

                // Serial in-order sink stage: wait for slot `next`.
                Slot &slot = slots[next % window];
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    slotDone.wait(lock, [&] { return slot.done; });
                }
                if (slot.error) {
                    errors.emplace_back(next, slot.error);
                } else if (errors.empty() && slot.value.has_value()) {
                    try {
                        sink(next, std::move(*slot.value));
                    } catch (...) {
                        errors.emplace_back(next,
                                            std::current_exception());
                        failed.store(true, std::memory_order_relaxed);
                        failFast.requestStop();
                    }
                }
                // Safe to reset without the lock: the worker is done
                // with this slot, and its next writer is submitted by
                // this thread (ordering via the pool's queue mutex).
                slot = Slot{};
                ++next;
            }
        } // pool drains and joins here

        if (!errors.empty()) {
            std::size_t lowest = 0;
            for (std::size_t e = 1; e < errors.size(); ++e) {
                if (errors[e].first < errors[lowest].first)
                    lowest = e;
            }
            std::rethrow_exception(errors[lowest].second);
        }
        result.wallMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        return result;
    }

  private:
    unsigned jobs_;
};

} // namespace tia

#endif // TIA_EXEC_PIPELINE_HH
