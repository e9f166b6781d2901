/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one timed call into a layer: name, start, end, the span
 * that caused it, the cell or request it worked on, and the thread it
 * ran on. Each thread appends to its own buffer (no lock on the hot
 * path); buffers are merged and written out once, at the end, as a
 * Chrome trace_event document with one track per thread, so idle gaps
 * between a worker's spans show directly in Perfetto.
 *
 * Spans come from the benchmark's own code, wrapped around the calls it
 * makes into each module's public functions; nothing inside the
 * simulator is instrumented.
 */

#ifndef PERFBENCH_SPAN_HH
#define PERFBENCH_SPAN_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Span
{
    const char *name = "";   ///< Static string, "<layer>.<operation>".
    std::uint64_t id = 0;     ///< Unique, 1-based.
    std::uint64_t parent = 0; ///< Causing span (0 = root).
    std::int64_t item = -1;   ///< Cell or request id (-1 = none).
    unsigned thread = 0;      ///< Recorder-assigned thread index.
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;

    double ms() const { return static_cast<double>(endNs - startNs) / 1e6; }
};

class SpanRecorder
{
    struct ThreadBuffer;

  public:
    /** Marks "use the innermost open span on this thread". */
    static constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};

    SpanRecorder() = default;
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Off: Scope does nothing beyond one relaxed load. */
    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** RAII span: opened on construction, recorded on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &recorder, const char *name,
              std::int64_t item = -1,
              std::uint64_t parent = kInheritParent)
        {
            if (!recorder.enabled())
                return;
            buffer_ = &recorder.threadBuffer();
            span_.name = name;
            span_.item = item;
            span_.id = recorder.nextId_.fetch_add(1) + 1;
            span_.parent = parent != kInheritParent
                               ? parent
                               : (buffer_->open.empty() ? 0
                                                        : buffer_->open.back());
            span_.thread = buffer_->thread;
            buffer_->open.push_back(span_.id);
            span_.startNs = nowNs();
        }

        ~Scope()
        {
            if (buffer_ == nullptr)
                return;
            span_.endNs = nowNs();
            buffer_->open.pop_back();
            buffer_->spans.push_back(span_);
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Span id (0 when recording is off). */
        std::uint64_t id() const { return span_.id; }

      private:
        ThreadBuffer *buffer_ = nullptr;
        Span span_;
    };

    /**
     * Every span recorded so far, sorted by start time. Call only when
     * no other thread is recording (after the pools have joined).
     */
    std::vector<Span>
    spans() const
    {
        std::vector<Span> all;
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_)
            all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
        std::sort(all.begin(), all.end(),
                  [](const Span &a, const Span &b) {
                      return a.startNs < b.startNs;
                  });
        return all;
    }

    /**
     * Write every span as Chrome trace_event JSON: "X" events on one
     * track per thread (thread 0 is the main thread), timestamps in
     * microseconds from the first span.
     */
    bool
    writeChromeTrace(const std::string &path) const
    {
        const std::vector<Span> all = spans();
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (out == nullptr)
            return false;
        const std::uint64_t origin = all.empty() ? 0 : all.front().startNs;
        std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", out);
        std::fprintf(out,
                     "{\"name\": \"process_name\", \"ph\": \"M\", "
                     "\"pid\": 1, \"tid\": 0, \"args\": {\"name\": "
                     "\"perfbench-layers\"}}");
        unsigned threads = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            threads = static_cast<unsigned>(buffers_.size());
        }
        for (unsigned t = 0; t < threads; ++t) {
            std::fprintf(out,
                         ",\n{\"name\": \"thread_name\", \"ph\": \"M\", "
                         "\"pid\": 1, \"tid\": %u, \"args\": {\"name\": "
                         "\"%s %u\"}}",
                         t, t == 0 ? "main" : "thread", t);
        }
        for (const Span &s : all) {
            const std::string name = s.name;
            const std::string layer = name.substr(0, name.find('.'));
            std::fprintf(out,
                         ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                         "\"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                         "\"dur\": %.3f, \"args\": {\"id\": %llu, "
                         "\"parent\": %llu, \"item\": %lld}}",
                         s.name, layer.c_str(), s.thread,
                         static_cast<double>(s.startNs - origin) / 1e3,
                         static_cast<double>(s.endNs - s.startNs) / 1e3,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<long long>(s.item));
        }
        std::fputs("\n]}\n", out);
        return std::fclose(out) == 0;
    }

  private:
    struct ThreadBuffer
    {
        unsigned thread = 0;
        std::vector<std::uint64_t> open; ///< Open span ids, innermost last.
        std::vector<Span> spans;
    };

    ThreadBuffer &
    threadBuffer()
    {
        // One recorder per process (see recorder()), so a plain
        // thread_local cache of this thread's buffer is enough.
        thread_local ThreadBuffer *cached = nullptr;
        if (cached == nullptr) {
            std::lock_guard<std::mutex> lock(mutex_);
            buffers_.push_back(std::make_unique<ThreadBuffer>());
            buffers_.back()->thread =
                static_cast<unsigned>(buffers_.size() - 1);
            cached = buffers_.back().get();
        }
        return *cached;
    }

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> nextId_{0};
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/** The process-wide recorder. */
inline SpanRecorder &
recorder()
{
    static SpanRecorder instance;
    return instance;
}

} // namespace perfbench

#endif // PERFBENCH_SPAN_HH
