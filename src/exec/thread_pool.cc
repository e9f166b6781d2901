#include "exec/thread_pool.hh"

#include <cstdio>
#include <thread>

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

} // namespace tia
