/**
 * @file
 * A minimal fixed-size thread pool for the sweep pipeline.
 *
 * The paper's batch artifacts (the Figure 5 CPI matrix, the >4,000
 * point design-space exploration) are embarrassingly parallel: every
 * cell constructs its own fabric and injector, so tasks share no
 * mutable state and the pool needs no more than a work queue. The
 * pool is deliberately small and boring — submission order is the
 * only ordering guarantee callers get, and SweepPipeline
 * (exec/pipeline.hh) layers in-order result delivery on top.
 */

#ifndef TIA_EXEC_THREAD_POOL_HH
#define TIA_EXEC_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tia {

class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 means defaultConcurrency().
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins all workers; pending tasks are drained first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Enqueue @p task. Tasks must not throw — wrap fallible work and
     * capture the exception (SweepPipeline does this per slot).
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    /**
     * std::thread::hardware_concurrency(), or 1 when the runtime
     * cannot tell (the standard allows it to return 0).
     */
    static unsigned defaultConcurrency();

    /**
     * Largest --jobs value the CLI tools accept without clamping:
     * generous oversubscription headroom (8x the hardware threads,
     * floor 64), but far below values that would exhaust memory or
     * thread handles on a typo like --jobs 999999.
     */
    static unsigned maxReasonableJobs();

    /**
     * Parse a --jobs CLI argument. Accepts non-negative decimal
     * integers only; 0 means "auto" (defaultConcurrency). Values above
     * maxReasonableJobs() are clamped with a warning on stderr;
     * malformed text exits with a diagnostic naming @p what.
     */
    static unsigned parseJobs(const std::string &text,
                              const char *what = "--jobs");

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allIdle_;
    unsigned running_ = 0; ///< Tasks currently executing.
    bool stopping_ = false;
};

} // namespace tia

#endif // TIA_EXEC_THREAD_POOL_HH
