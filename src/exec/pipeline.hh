/**
 * @file
 * SweepPipeline: the one parallel executor behind every sweep surface
 * (the CPI matrix, tia-sim's multi-uarch fan-out and the serve layer's
 * `sweep` method). It is a plain claim-an-index parallel loop: the
 * calling thread and jobs - 1 worker threads take task indices from
 * one atomic counter, store each result in its own slot, and after
 * they join the sink runs over the results in index order.
 *
 * The sink does not overlap the tasks: timed around tia-sweep's whole
 * sink on a 4-vCPU host, that overlap could save at most about 5 ms of
 * a 0.4 s cold --jobs 4 matrix (docs/perf.md).
 *
 * Guarantees, pinned by tests/test_sweep_pipeline.cc:
 *
 *  - **Order**: sink(i, value) is invoked for i = 0, 1, 2, … with no
 *    gaps and no reordering, so the sink sees exactly the serial
 *    loop's history and results are bit-identical for every jobs
 *    count.
 *  - **Serial reference**: jobs == 1 is the plain loop
 *    `for i: sink(i, fn(i))` on the calling thread.
 *  - **Fail-fast**: tasks get a StopToken from an internal fail-fast
 *    source (fn may be fn(i) or fn(i, cancel)). The first task
 *    exception cancels running token-aware siblings and stops the
 *    threads claiming further indices. The sink then sees
 *    [0, lowest failing index), and that index's exception is
 *    rethrown, as the serial loop would have thrown it. A sink
 *    exception propagates as it is.
 *  - **Every index runs**: barring a failure, run() runs and sinks
 *    all of [0, count). A caller's CycleRunOptions::stop deadline
 *    token cancels the *tasks themselves*, not the loop: a
 *    deadline-cancelled sweep still fills every slot (with
 *    RunStatus::Cancelled values).
 */

#ifndef TIA_EXEC_PIPELINE_HH
#define TIA_EXEC_PIPELINE_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <optional>
#include <thread>
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
    unsigned jobs = 1;   ///< Threads actually used.
    double wallMs = 0.0; ///< Wall-clock time of the whole run().
};

class SweepPipeline
{
  public:
    /** @param jobs threads running tasks; 0 = defaultConcurrency. */
    explicit SweepPipeline(unsigned jobs = 0)
        : jobs_(jobs == 0 ? ThreadPool::defaultConcurrency() : jobs)
    {
    }

    unsigned jobs() const { return jobs_; }

    /**
     * Evaluate @p fn over [0, count) on up to jobs() threads, then
     * deliver each result to @p sink (called as sink(i, T&&)) in index
     * order. @p fn must be a pure function of i, safe to call
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
            // Serial reference: the first exception propagates
            // unwrapped.
            for (std::size_t i = 0; i < count; ++i)
                sink(i, detail::invokeSweepTask(fn, i, StopToken{}));
        } else {
            std::vector<std::optional<T>> values(count);
            std::vector<std::exception_ptr> errors(count);
            StopSource failFast;
            const StopToken cancel = failFast.token();
            std::atomic<std::size_t> next{0};
            // Indices are claimed in increasing order and a claimed
            // task always runs, so every index below the lowest
            // failing one has its value.
            const auto claim = [&] {
                while (!cancel.stopRequested()) {
                    const std::size_t i = next++;
                    if (i >= count)
                        return;
                    try {
                        values[i].emplace(
                            detail::invokeSweepTask(fn, i, cancel));
                    } catch (...) {
                        errors[i] = std::current_exception();
                        failFast.requestStop();
                    }
                }
            };
            {
                std::vector<std::jthread> workers;
                workers.reserve(result.jobs - 1);
                for (unsigned t = 1; t < result.jobs; ++t)
                    workers.emplace_back(claim);
                claim();
            } // workers join here

            std::size_t end = 0;
            while (end < count && !errors[end])
                ++end;
            for (std::size_t i = 0; i < end; ++i)
                sink(i, std::move(*values[i]));
            if (end < count)
                std::rethrow_exception(errors[end]);
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
