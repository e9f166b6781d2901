#include "exec/thread_pool.hh"

#include <cstdio>

#include "core/parse.hh"

namespace tia {

unsigned
ThreadPool::defaultConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
ThreadPool::maxReasonableJobs()
{
    const unsigned hw = defaultConcurrency();
    const unsigned headroom = hw > 8 ? 8 * hw : 64;
    return headroom < 64 ? 64 : headroom;
}

unsigned
ThreadPool::parseJobs(const std::string &text, const char *what)
{
    // Past 64 bits is just another absurd value: clamp it below.
    const std::uint64_t value = parseDigits(what, text).value_or(UINT64_MAX);
    if (value == 0)
        return defaultConcurrency();
    const unsigned limit = maxReasonableJobs();
    if (value > limit) {
        std::fprintf(stderr,
                     "warning: %s %s exceeds the sane limit for this "
                     "machine; clamping to %u\n",
                     what, text.c_str(), limit);
        return limit;
    }
    return static_cast<unsigned>(value);
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultConcurrency();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    workReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allIdle_.wait(lock,
                  [this] { return queue_.empty() && running_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) // stopping_ and drained
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
            ++running_;
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --running_;
            if (queue_.empty() && running_ == 0)
                allIdle_.notify_all();
        }
    }
}

} // namespace tia
