/**
 * @file
 * The streaming sweep pipeline (exec/pipeline.hh) and its satellites:
 * in-order sink delivery, a lookahead deep enough that one long head
 * task does not idle the pool, bit-identity of the CPI matrix vs the
 * jobs == 1 serial reference (clean and fault-injected), fail-fast
 * cancellation of sibling tasks on the first exception, mid-pipeline
 * StopToken cancellation (every slot
 * Cancelled-or-filled, nothing cached), the incremental Pareto
 * frontier vs the batch algorithm (including --incremental early
 * exit), StopToken::anyOf merging, ThreadPool::parseJobs validation,
 * the SimCache dirty-skip, and the NaN-serializes-as-null pin.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/digest.hh"
#include "cache/simcache.hh"
#include "core/logging.hh"
#include "exec/pipeline.hh"
#include "exec/stop_token.hh"
#include "exec/thread_pool.hh"
#include "obs/json.hh"
#include "sim/fault.hh"
#include "vlsi/dse.hh"
#include "vlsi/pareto.hh"
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
    EXPECT_EQ(result.generated, 1000u);
    EXPECT_EQ(result.sunk, 1000u);
    EXPECT_FALSE(result.stoppedEarly);
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
    EXPECT_LE(sunk, 17u);
}

TEST(SweepPipeline, TaskFailureCancelsTokenAwareSiblings)
{
    // Token-aware siblings park on the fail-fast token; if the first
    // exception did not fire it, they would spin out the full 5 s
    // deadline and the test would time out instead of finishing fast.
    // Task 0 throws only once a sibling is running: a failure stops
    // the generator, so on a loaded host task 0 could otherwise fail
    // before any sibling was even submitted.
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

TEST(SweepPipeline, GeneratorStopDeliversAContiguousPrefix)
{
    StopSource stop;
    std::size_t next = 0;
    const PipelineResult result = SweepPipeline(4).run(
        10'000, [](std::size_t i) { return i; },
        [&](std::size_t i, std::size_t &&) {
            EXPECT_EQ(i, next);
            ++next;
            if (next == 20)
                stop.requestStop();
        },
        stop.token());
    EXPECT_TRUE(result.stoppedEarly);
    EXPECT_EQ(result.sunk, next);
    // Everything generated before the stop was observed is still
    // simulated and sunk: no gaps, no dropped in-flight work.
    EXPECT_EQ(result.generated, result.sunk);
    EXPECT_GE(result.sunk, 20u);
    EXPECT_LT(result.sunk, 10'000u);
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
    // Task 0 blocks until its 39 siblings have all finished. The sink
    // cannot advance past task 0, so this only completes if the
    // generator may run 40 tasks ahead of the sink; a lookahead sized
    // in worker slots lets a few siblings finish and then idles every
    // worker until task 0 gives up after 5 s.
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
        std::size_t cells = 0;
        std::size_t expect = 0;
        const CycleMatrix streamed = runCycleMatrix(
            suite, configs, {}, jobs,
            [&](std::size_t c, std::size_t w, const WorkloadRun &run) {
                // Row-major in-order delivery, and the sink sees the
                // same run object the matrix retains.
                EXPECT_EQ(c * suite.size() + w, expect);
                ++expect;
                EXPECT_TRUE(run == serial.run(c, w));
                ++cells;
            });
        expectMatricesIdentical(serial, streamed,
                                "jobs=" + std::to_string(jobs));
        EXPECT_EQ(cells, serial.runs.size());
    }
}

TEST(StreamedMatrix, BitIdenticalToSerialUnderFaultInjection)
{
    const FaultPlan plan = FaultPlan::parse(
        "seed=99;drop:ch0@p0.05;corrupt:ch0@p0.02,mask=0x4;"
        "mispredict:pe0@p0.1");
    CycleRunOptions options;
    options.faults = &plan;
    options.goldenCrossCheck = true;

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
    // jobs = 1 makes the schedule deterministic: the sink fires the
    // caller's stop source after the first cell, so cell 0 completes
    // (and is cached) and every later cell returns Cancelled at its
    // first stop poll — and must never be cached.
    const auto suite = allWorkloads(WorkloadSizes::small());
    const auto configs = matrixConfigs();

    SimCache cache;
    StopSource stop;
    CycleRunOptions options;
    options.cache = &cache;
    options.stop = stop.token();

    const CycleMatrix matrix = runCycleMatrix(
        suite, configs, options, 1,
        [&](std::size_t c, std::size_t w, const WorkloadRun &) {
            if (c == 0 && w == 0)
                stop.requestStop();
        });

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
// Incremental Pareto frontier.

void
expectSameFrontier(const std::vector<DesignPoint> &batch,
                   const std::vector<DesignPoint> &incremental,
                   const std::string &what)
{
    ASSERT_EQ(batch.size(), incremental.size()) << what;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(batch[i].nsPerInstruction,
                  incremental[i].nsPerInstruction)
            << what << " point " << i;
        EXPECT_EQ(batch[i].pjPerInstruction,
                  incremental[i].pjPerInstruction)
            << what << " point " << i;
        EXPECT_EQ(batch[i].config, incremental[i].config)
            << what << " point " << i;
    }
}

TEST(IncrementalPareto, MatchesBatchOnRandomPoints)
{
    std::mt19937 rng(12345);
    std::uniform_real_distribution<double> dist(0.1, 100.0);
    std::vector<DesignPoint> points(2000);
    for (DesignPoint &p : points) {
        p.nsPerInstruction = dist(rng);
        p.pjPerInstruction = dist(rng);
    }

    IncrementalPareto pareto;
    for (const DesignPoint &p : points)
        pareto.add(p);

    const auto batch = DesignSpace::paretoFrontier(points);
    expectSameFrontier(batch, pareto.frontier(), "random");
    EXPECT_EQ(pareto.pointsSeen(), points.size());
    EXPECT_GE(pareto.updates(), pareto.frontier().size());
}

TEST(IncrementalPareto, WeakDominanceRejectsTies)
{
    auto point = [](double ns, double pj) {
        DesignPoint p;
        p.nsPerInstruction = ns;
        p.pjPerInstruction = pj;
        return p;
    };
    IncrementalPareto pareto;
    EXPECT_TRUE(pareto.add(point(2.0, 5.0)));
    EXPECT_FALSE(pareto.add(point(2.0, 5.0))); // exact duplicate
    EXPECT_FALSE(pareto.add(point(3.0, 5.0))); // dominated (equal pj)
    EXPECT_TRUE(pareto.add(point(2.0, 4.0)));  // evicts equal-ns worse
    ASSERT_EQ(pareto.size(), 1u);
    EXPECT_EQ(pareto.frontier()[0].pjPerInstruction, 4.0);
    EXPECT_TRUE(pareto.add(point(1.0, 9.0)));  // faster, pricier
    EXPECT_TRUE(pareto.add(point(0.5, 3.0)));  // dominates everything
    ASSERT_EQ(pareto.size(), 1u);
    EXPECT_EQ(pareto.frontier()[0].nsPerInstruction, 0.5);
    EXPECT_EQ(pareto.evictions(), 3u);
}

TEST(IncrementalPareto, StreamedDseMatchesBatchFrontier)
{
    CpiTable table;
    for (const PeConfig &config : allConfigs())
        table[config.name()] = 1.5;
    const DesignSpace dse(std::move(table));

    const auto points = dse.enumerate();
    const auto batch = DesignSpace::paretoFrontier(points);

    const DseStreamResult stream = dse.enumerateStreamed(4);
    EXPECT_FALSE(stream.earlyExit);
    EXPECT_EQ(stream.shardsCompleted, stream.shardsTotal);
    ASSERT_EQ(stream.points.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].nsPerInstruction,
                  stream.points[i].nsPerInstruction)
            << i;
        EXPECT_EQ(points[i].pjPerInstruction,
                  stream.points[i].pjPerInstruction)
            << i;
    }
    expectSameFrontier(batch, stream.frontier, "full DSE");
}

TEST(IncrementalPareto, EarlyExitReproducesTheFullRunFrontier)
{
    CpiTable table;
    for (const PeConfig &config : allConfigs())
        table[config.name()] = 1.5;
    const DesignSpace dse(std::move(table));

    // Reference: the full run, plus the positions (in points) where
    // the frontier last changed, to derive a window that is safe by
    // construction: one larger than the largest gap between
    // consecutive frontier changes.
    const DseStreamResult full = dse.enumerateStreamed(4);
    IncrementalPareto replay;
    std::size_t lastChange = 0;
    std::size_t maxGap = 0;
    for (std::size_t i = 0; i < full.points.size(); ++i) {
        if (replay.add(full.points[i])) {
            maxGap = std::max(maxGap, i - lastChange);
            lastChange = i;
        }
    }
    const std::size_t tail = full.points.size() - 1 - lastChange;
    const std::size_t window = maxGap + 1;
    ASSERT_GT(tail, window)
        << "the DSE's frontier stabilizes too late for an early-exit "
           "test; pick a different grid";

    DseStreamOptions options;
    options.stableWindow = window;
    std::size_t updates = 0;
    options.onFrontierUpdate =
        [&](std::size_t, const std::vector<DesignPoint> &) {
            ++updates;
        };
    const DseStreamResult early =
        dse.enumerateStreamed(4, allConfigs(), options);

    EXPECT_TRUE(early.earlyExit);
    EXPECT_LT(early.points.size(), full.points.size());
    EXPECT_LT(early.shardsCompleted, early.shardsTotal);
    EXPECT_GT(updates, 0u);
    expectSameFrontier(full.frontier, early.frontier, "early-exit");
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
