/**
 * @file
 * The parallel sweep loop (exec/pipeline.hh) and its satellites:
 * in-order sink delivery, one long head task not idling the other
 * threads, bit-identity of the CPI matrix vs the
 * jobs == 1 serial reference (clean and fault-injected), fail-fast
 * cancellation of sibling tasks on the first exception, mid-pipeline
 * StopToken cancellation (every slot Cancelled-or-filled, nothing
 * cached), StopToken::anyOf merging, ThreadPool::parseJobs
 * validation, the SimCache dirty-skip, and the NaN-serializes-as-null
 * pin.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/digest.hh"
#include "cache/simcache.hh"
#include "core/logging.hh"
#include "core/parse.hh"
#include "exec/pipeline.hh"
#include "exec/stop_token.hh"
#include "exec/thread_pool.hh"
#include "obs/json.hh"
#include "sim/fault.hh"
#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace {

using namespace tia;

// ---------------------------------------------------------------------
// SweepPipeline mechanics.

TEST(SweepPipeline, SinkSeesEveryResultInIndexOrder)
{
    const SweepPipeline pipeline(4);
    std::size_t expected = 0;
    const PipelineResult result = pipeline.run(
        1000, [](std::size_t i) { return i * i; },
        [&](std::size_t i, std::size_t &&value) {
            EXPECT_EQ(i, expected) << "sink delivered out of order";
            EXPECT_EQ(value, i * i);
            ++expected;
        });
    EXPECT_EQ(expected, 1000u);
    EXPECT_EQ(result.jobs, 4u);
}

TEST(SweepPipeline, SerialPathMatchesParallel)
{
    auto fn = [](std::size_t i) { return 3 * i + 7; };
    std::vector<std::size_t> serial, parallel;
    SweepPipeline(1).run(257, fn, [&](std::size_t, std::size_t &&v) {
        serial.push_back(v);
    });
    SweepPipeline(8).run(257, fn, [&](std::size_t, std::size_t &&v) {
        parallel.push_back(v);
    });
    EXPECT_EQ(serial, parallel);
}

TEST(SweepPipeline, UsesNoMoreJobsThanTasks)
{
    const PipelineResult result = SweepPipeline(16).run(
        3, [](std::size_t i) { return i; },
        [](std::size_t, std::size_t &&) {});
    EXPECT_EQ(result.jobs, 3u);
}

TEST(SweepPipeline, RethrowsTaskExceptionAndStopsSinking)
{
    const SweepPipeline pipeline(4);
    std::size_t sunk = 0;
    try {
        pipeline.run(
            100,
            [](std::size_t i) -> int {
                if (i == 17 || i == 80)
                    throw std::runtime_error("task " +
                                             std::to_string(i));
                return 0;
            },
            [&](std::size_t i, int &&) {
                EXPECT_LT(i, 17u)
                    << "sank a result past the first failure";
                ++sunk;
            });
        FAIL() << "run() swallowed the task exception";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "task 17");
    }
    // The sink sees exactly the serial loop's history.
    EXPECT_EQ(sunk, 17u);
}

TEST(SweepPipeline, TaskFailureCancelsTokenAwareSiblings)
{
    // Token-aware siblings park on the fail-fast token; if the first
    // exception did not fire it, they would spin out the full 5 s
    // deadline and the test would time out instead of finishing fast.
    // Task 0 throws only once a sibling is running: a failure stops
    // the threads claiming indices, so on a loaded host task 0 could
    // otherwise fail before any sibling was even claimed.
    const SweepPipeline pipeline(4);
    std::atomic<unsigned> cancelled{0};
    std::atomic<unsigned> started{0};
    try {
        pipeline.run(
            8,
            [&](std::size_t i, StopToken cancel) -> int {
                if (i == 0) {
                    const auto give_up = std::chrono::steady_clock::now() +
                                         std::chrono::seconds(5);
                    while (started.load() == 0 &&
                           std::chrono::steady_clock::now() < give_up)
                        std::this_thread::yield();
                    throw std::runtime_error("boom");
                }
                started.fetch_add(1);
                const auto deadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::seconds(5);
                while (!cancel.stopRequested()) {
                    if (std::chrono::steady_clock::now() > deadline)
                        return 0; // not cancelled: fail below
                    std::this_thread::yield();
                }
                cancelled.fetch_add(1);
                return 1;
            },
            [](std::size_t, int &&) {});
        FAIL() << "run() swallowed the task exception";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "boom");
    }
    EXPECT_GT(cancelled.load(), 0u)
        << "no sibling observed the fail-fast token";
}

TEST(SweepPipeline, SinkExceptionFailsTheRunFast)
{
    const SweepPipeline pipeline(4);
    try {
        pipeline.run(
            100, [](std::size_t i) { return i; },
            [](std::size_t i, std::size_t &&) {
                if (i == 3)
                    throw std::runtime_error("sink 3");
            });
        FAIL() << "run() swallowed the sink exception";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "sink 3");
    }
}

TEST(SweepPipeline, RethrowsTheLowestIndexException)
{
    // Task 40 throws first, while task 5 is running; task 5 throws
    // only after it. The serial loop would have thrown task 5's
    // exception, so run() must too.
    const SweepPipeline pipeline(4);
    std::atomic<bool> lowStarted{false};
    std::atomic<bool> highThrew{false};
    const auto waitFor = [](const std::atomic<bool> &flag) {
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!flag.load() && std::chrono::steady_clock::now() < give_up)
            std::this_thread::yield();
    };
    try {
        pipeline.run(
            64,
            [&](std::size_t i) -> int {
                if (i == 40) {
                    waitFor(lowStarted);
                    highThrew.store(true);
                    throw std::runtime_error("task 40");
                }
                if (i == 5) {
                    lowStarted.store(true);
                    waitFor(highThrew);
                    throw std::runtime_error("task 5");
                }
                return 0;
            },
            [](std::size_t, int &&) {});
        FAIL() << "run() swallowed the task exception";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "task 5");
    }
}

TEST(SweepPipeline, QueuedTokenlessTasksAreSkipped)
{
    // 2 workers, 64 tasks: task 0 throws immediately, so most of the
    // queued token-less siblings must be skipped, not run.
    const SweepPipeline pipeline(2);
    std::atomic<unsigned> ran{0};
    EXPECT_THROW(pipeline.run(
                     64,
                     [&](std::size_t i) -> int {
                         if (i == 0)
                             throw std::runtime_error("boom");
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(1));
                         ran.fetch_add(1);
                         return 0;
                     },
                     [](std::size_t, int &&) {}),
                 std::runtime_error);
    EXPECT_LT(ran.load(), 63u)
        << "every queued sibling still ran to completion";
}

TEST(SweepPipeline, SerialJobsStillThrowImmediately)
{
    const SweepPipeline pipeline(1);
    unsigned ran = 0;
    EXPECT_THROW(pipeline.run(
                     10,
                     [&](std::size_t i) -> int {
                         ++ran;
                         if (i == 3)
                             throw std::runtime_error("boom");
                         return 0;
                     },
                     [](std::size_t, int &&) {}),
                 std::runtime_error);
    EXPECT_EQ(ran, 4u);
}

TEST(SweepPipeline, LongHeadTaskDoesNotIdleThePool)
{
    // Task 0 blocks until its 39 siblings have all finished, so this
    // only completes in time if the other threads keep claiming tasks
    // while the head one runs; an executor that held results back
    // behind task 0 in a bounded window would idle every worker until
    // task 0 gives up after 5 s.
    constexpr std::size_t kTasks = 40;
    std::mutex mutex;
    std::condition_variable siblingDone;
    std::size_t finished = 0;
    std::size_t sunk = 0;
    SweepPipeline(4).run(
        kTasks,
        [&](std::size_t i) {
            std::unique_lock<std::mutex> lock(mutex);
            if (i == 0) {
                return siblingDone.wait_for(
                    lock, std::chrono::seconds(5),
                    [&] { return finished == kTasks - 1; });
            }
            ++finished;
            siblingDone.notify_all();
            return true;
        },
        [&](std::size_t i, bool &&ok) {
            EXPECT_TRUE(ok) << "task " << i
                            << " timed out waiting for its siblings";
            ++sunk;
        });
    EXPECT_EQ(sunk, kTasks);
}

// ---------------------------------------------------------------------
// StopToken::anyOf.

TEST(StopTokenAnyOf, FiresWhenEitherInputFires)
{
    StopSource a, b;
    const StopToken merged = StopToken::anyOf(a.token(), b.token());
    EXPECT_TRUE(merged.possible());
    EXPECT_FALSE(merged.stopRequested());
    b.requestStop();
    EXPECT_TRUE(merged.stopRequested());
    EXPECT_STREQ(merged.why(), "stop requested");
}

TEST(StopTokenAnyOf, DetachedInputsCollapse)
{
    StopSource a;
    const StopToken left = StopToken::anyOf(a.token(), StopToken{});
    const StopToken right = StopToken::anyOf(StopToken{}, a.token());
    const StopToken none = StopToken::anyOf(StopToken{}, StopToken{});
    EXPECT_FALSE(none.possible());
    EXPECT_FALSE(left.stopRequested());
    a.requestStop();
    EXPECT_TRUE(left.stopRequested());
    EXPECT_TRUE(right.stopRequested());
}

TEST(StopTokenAnyOf, PropagatesDeadlineWhy)
{
    StopSource deadline;
    deadline.setDeadline(std::chrono::steady_clock::now() -
                         std::chrono::milliseconds(1));
    StopSource other;
    const StopToken merged =
        StopToken::anyOf(other.token(), deadline.token());
    EXPECT_TRUE(merged.stopRequested());
    EXPECT_STREQ(merged.why(), "deadline expired");
}

// ---------------------------------------------------------------------
// CPI matrix vs the jobs == 1 serial reference: bit-identity.

std::vector<PeConfig>
matrixConfigs()
{
    return {
        PeConfig{PipelineShape{false, false, false}, false, false},
        PeConfig{PipelineShape{true, false, false}, true, true},
        PeConfig{PipelineShape{true, true, true}, true, true},
    };
}

void
expectMatricesIdentical(const CycleMatrix &a, const CycleMatrix &b,
                        const std::string &what)
{
    ASSERT_EQ(a.runs.size(), b.runs.size()) << what;
    EXPECT_EQ(a.numConfigs, b.numConfigs) << what;
    EXPECT_EQ(a.numWorkloads, b.numWorkloads) << what;
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        // WorkloadRun has field-wise operator==; bit-identity of every
        // counter is the determinism contract.
        EXPECT_TRUE(a.runs[i] == b.runs[i]) << what << " cell " << i;
    }
}

TEST(StreamedMatrix, BitIdenticalToSerialAcrossJobsCounts)
{
    const auto suite = allWorkloads(WorkloadSizes::small());
    const auto configs = matrixConfigs();

    const CycleMatrix serial = runCycleMatrix(suite, configs, {}, 1);
    for (const WorkloadRun &run : serial.runs)
        EXPECT_TRUE(run.ok()) << run.checkError;
    for (unsigned jobs : {1u, 2u, 8u}) {
        const CycleMatrix parallel = runCycleMatrix(suite, configs, {}, jobs);
        expectMatricesIdentical(serial, parallel,
                                "jobs=" + std::to_string(jobs));
    }
}

TEST(StreamedMatrix, BitIdenticalToSerialUnderFaultInjection)
{
    const FaultPlan plan = FaultPlan::parse(
        "seed=99;drop:ch0@p0.05;corrupt:ch0@p0.02,mask=0x4;"
        "mispredict:pe0@p0.1");
    CycleRunOptions options;
    options.faults = &plan;

    const auto suite = allWorkloads(WorkloadSizes::small());
    const auto configs = matrixConfigs();

    // Each task owns its FaultInjector RNG, so a seeded plan replays
    // bit-identically regardless of how the matrix is scheduled.
    const CycleMatrix serial = runCycleMatrix(suite, configs, options, 1);
    const CycleMatrix parallel =
        runCycleMatrix(suite, configs, options, 4);
    expectMatricesIdentical(serial, parallel, "fault-injected");

    bool any_fired = false;
    for (const WorkloadRun &run : serial.runs)
        any_fired = any_fired || run.faultStats.totalFired() > 0;
    EXPECT_TRUE(any_fired) << "the plan never fired; the test is vacuous";
}

TEST(StreamedMatrix, MidSweepCancellationFillsEverySlotAndCachesNothing)
{
    // jobs = 1 makes the schedule deterministic: workload 0's check
    // fires the caller's stop source as the first cell finishes, so
    // cell 0 completes (and is cached) and every later cell returns
    // Cancelled at its first stop poll — and must never be cached.
    auto suite = allWorkloads(WorkloadSizes::small());
    const auto configs = matrixConfigs();

    SimCache cache;
    StopSource stop;
    CycleRunOptions options;
    options.cache = &cache;
    options.stop = stop.token();
    suite[0].check = [&stop, check = suite[0].check](const Memory &memory) {
        stop.requestStop();
        return check(memory);
    };

    const CycleMatrix matrix = runCycleMatrix(suite, configs, options, 1);

    ASSERT_EQ(matrix.runs.size(), suite.size() * configs.size());
    std::size_t completed = 0;
    for (std::size_t i = 0; i < matrix.runs.size(); ++i) {
        const RunStatus status = matrix.runs[i].status;
        if (i == 0) {
            EXPECT_NE(status, RunStatus::Cancelled);
            ++completed;
        } else {
            EXPECT_EQ(status, RunStatus::Cancelled)
                << "cell " << i << " ran to completion after the stop";
        }
    }
    // Cancelled runs are never cached: only the completed cell is
    // resident.
    EXPECT_EQ(cache.size(), completed);
}

// ---------------------------------------------------------------------
// --jobs parsing and clamping (satellite bugfix).

TEST(ParseJobs, ResolvesAutoAndPlainValues)
{
    EXPECT_EQ(ThreadPool::parseJobs("0"),
              ThreadPool::defaultConcurrency());
    EXPECT_EQ(ThreadPool::parseJobs("1"), 1u);
    EXPECT_EQ(ThreadPool::parseJobs("4"), 4u);
}

TEST(ParseJobs, ClampsAbsurdValues)
{
    const unsigned limit = ThreadPool::maxReasonableJobs();
    EXPECT_GE(limit, 64u);
    EXPECT_GE(limit, ThreadPool::defaultConcurrency());
    EXPECT_EQ(ThreadPool::parseJobs("999999"), limit);
    // Values past unsigned long range clamp too instead of throwing
    // std::out_of_range out of the CLI.
    EXPECT_EQ(ThreadPool::parseJobs("99999999999999999999999999"),
              limit);
    EXPECT_EQ(ThreadPool::parseJobs(std::to_string(limit)), limit);
}

TEST(ParseJobs, RejectsMalformedText)
{
    EXPECT_THROW(ThreadPool::parseJobs(""), FatalError);
    EXPECT_THROW(ThreadPool::parseJobs("abc"), FatalError);
    EXPECT_THROW(ThreadPool::parseJobs("-1"), FatalError);
    EXPECT_THROW(ThreadPool::parseJobs("4x"), FatalError);
    EXPECT_THROW(ThreadPool::parseJobs("1.5"), FatalError);
}

// ---------------------------------------------------------------------
// The strict parsers every tool's count, rate and list options share.

TEST(StrictParse, CountsAreDigitsOnly)
{
    EXPECT_EQ(parseCount64("--n", "0"), 0u);
    EXPECT_EQ(parseCount64("--n", "18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parseCount("--n", "999999999"), 999'999'999u);
    for (const char *bad : {"", "-1", "+1", "5junk", " 5", "5 ", "1.5",
                            "0x10"}) {
        try {
            parseCount64("--n", bad);
            ADD_FAILURE() << "accepted \"" << bad << "\"";
        } catch (const FatalError &error) {
            EXPECT_NE(std::string(error.what())
                          .find("--n wants a non-negative integer"),
                      std::string::npos)
                << error.what();
        }
    }
    EXPECT_THROW(parseCount64("--n", "18446744073709551616"), FatalError);
    EXPECT_THROW(parseCount64("--n", "11", 10), FatalError);
    EXPECT_THROW(parseCount("--n", "1000000000"), FatalError);
    EXPECT_EQ(parseDigits("--n", "99999999999999999999"), std::nullopt);
}

TEST(StrictParse, RatesAreFiniteAndNonNegative)
{
    EXPECT_EQ(parseRate("--r", "0"), 0.0);
    EXPECT_EQ(parseRate("--r", "2.5"), 2.5);
    EXPECT_EQ(parseRate("--r", "200.000000"), 200.0);
    for (const char *bad : {"", "nan", "inf", "-1", "1e999", "2.5x",
                            " 1"}) {
        EXPECT_THROW(parseRate("--r", bad), FatalError) << bad;
    }
}

TEST(StrictParse, ListsTrimBlanksAndRejectEmptyEntries)
{
    EXPECT_EQ(splitList("gcd, udiv ,mean", "x"),
              (std::vector<std::string>{"gcd", "udiv", "mean"}));
    EXPECT_EQ(splitList("T|DX +P+Q", "x"),
              (std::vector<std::string>{"T|DX +P+Q"}));
    for (const char *bad : {"", " ", "a,", ",a", "a,,b", "a, ,b"})
        EXPECT_THROW(splitList(bad, "x"), FatalError) << bad;
}

// ---------------------------------------------------------------------
// JsonValue::dump layout: containers of scalars print on one line, so
// tia-sweep's Pareto entries keep their one-object-per-line form.

TEST(JsonDump, ScalarContainersPrintInline)
{
    JsonValue point = JsonValue::object();
    point["config"] = "TDX";
    point["cpi"] = 1.5;
    point["ok"] = true;
    point["none"] = JsonValue();
    EXPECT_EQ(point.dump(),
              "{\"config\": \"TDX\", \"cpi\": 1.5, \"ok\": true, "
              "\"none\": null}\n");

    JsonValue pareto = JsonValue::array();
    pareto.push(point);
    pareto.push(JsonValue::object());
    JsonValue doc = JsonValue::object();
    doc["pareto"] = std::move(pareto);
    doc["row"] = JsonValue::array();
    doc["row"].push(1);
    doc["row"].push(2);
    EXPECT_EQ(doc.dump(),
              "{\n"
              "  \"pareto\": [\n"
              "    {\"config\": \"TDX\", \"cpi\": 1.5, \"ok\": true, "
              "\"none\": null},\n"
              "    {}\n"
              "  ],\n"
              "  \"row\": [1, 2]\n"
              "}\n");
}

// ---------------------------------------------------------------------
// Non-finite floats serialize as null (satellite audit pin).

TEST(JsonNonFinite, JsonValueSerializesNonFiniteAsNull)
{
    JsonValue object = JsonValue::object();
    object["nan"] = std::numeric_limits<double>::quiet_NaN();
    object["inf"] = std::numeric_limits<double>::infinity();
    object["neg"] = -std::numeric_limits<double>::infinity();
    object["ok"] = 1.5;
    const std::string text = object.dump();
    EXPECT_NE(text.find("\"nan\": null"), std::string::npos) << text;
    EXPECT_NE(text.find("\"inf\": null"), std::string::npos) << text;
    EXPECT_NE(text.find("\"neg\": null"), std::string::npos) << text;
    EXPECT_EQ(text.find("nan,"), std::string::npos) << text;
    EXPECT_EQ(text.find("inf,"), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// SimCache dirty-skip.

class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    return contents.str();
}

TEST(SimCacheDirtySkip, UnchangedCacheSkipsTheRewrite)
{
    TempFile file("dirty_skip.tiasimc");
    SimCache cache;
    cache.put(digest128("a"), "alpha");
    ASSERT_TRUE(cache.save(file.path(), nullptr));

    // Scribble over the file out-of-band: a skipped save leaves the
    // scribble in place, a rewrite would restore the real contents.
    {
        std::ofstream out(file.path(), std::ios::binary);
        out << "scribble";
    }
    ASSERT_TRUE(cache.save(file.path(), nullptr));
    EXPECT_EQ(fileBytes(file.path()), "scribble")
        << "save() rewrote a clean cache";

    // A mutation dirties the cache and the next save really writes.
    cache.put(digest128("b"), "beta");
    ASSERT_TRUE(cache.save(file.path(), nullptr));
    EXPECT_NE(fileBytes(file.path()), "scribble");

    SimCache reloaded;
    ASSERT_TRUE(reloaded.load(file.path(), nullptr));
    EXPECT_EQ(reloaded.size(), 2u);
}

TEST(SimCacheDirtySkip, CleanLoadIntoEmptyCacheSkipsSaveBack)
{
    TempFile file("dirty_skip_load.tiasimc");
    {
        SimCache seed;
        seed.put(digest128("a"), "alpha");
        ASSERT_TRUE(seed.save(file.path(), nullptr));
    }
    const std::string original = fileBytes(file.path());

    // A fully warm run: load, only hits, save back — must not rewrite.
    SimCache warm;
    ASSERT_TRUE(warm.load(file.path(), nullptr));
    {
        std::ofstream out(file.path(), std::ios::binary);
        out << "scribble";
    }
    ASSERT_TRUE(warm.save(file.path(), nullptr));
    EXPECT_EQ(fileBytes(file.path()), "scribble")
        << "a clean loaded cache still rewrote its file";

    // Saving to a different path is never skipped.
    TempFile other("dirty_skip_other.tiasimc");
    ASSERT_TRUE(warm.save(other.path(), nullptr));
    EXPECT_EQ(fileBytes(other.path()), original);
}

TEST(SimCacheDirtySkip, EraseDirtiesTheCache)
{
    TempFile file("dirty_skip_erase.tiasimc");
    SimCache cache;
    cache.put(digest128("a"), "alpha");
    cache.put(digest128("b"), "beta");
    ASSERT_TRUE(cache.save(file.path(), nullptr));
    cache.erase(digest128("a"));
    ASSERT_TRUE(cache.save(file.path(), nullptr));
    SimCache reloaded;
    ASSERT_TRUE(reloaded.load(file.path(), nullptr));
    EXPECT_EQ(reloaded.size(), 1u);
}

} // namespace
