/**
 * @file
 * The content-addressed simulation result cache (src/cache/): digest
 * and serialization primitives, the single-flight SimCache, the
 * persistent TIASIMC1 tier (round-trip, truncation, corruption), the
 * WorkloadRun codec, verify-on-hit mode, and the headline contract —
 * cached runCycle results are bit-identical to uncached ones,
 * including under fault injection.
 *
 * GoldenDigest pins the cache keys of canonical (workload, uarch)
 * pairs. A pin changing means every persistent cache silently goes
 * cold: bump kCacheSchemaVersion (cache/serialize.hh) when the key
 * derivation intentionally changes, then re-pin here.
 */

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/digest.hh"
#include "cache/run_cache.hh"
#include "cache/serialize.hh"
#include "cache/simcache.hh"
#include "core/logging.hh"
#include "obs/trace.hh"
#include "sim/fault.hh"
#include "uarch/config.hh"
#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace {

using namespace tia;

// ---------------------------------------------------------------------
// Digest primitives.

TEST(Digest, HexRoundTripsAndOrders)
{
    const Digest128 d = digest128("hello, cache");
    EXPECT_EQ(d.hex().size(), 32u);
    Digest128 back;
    ASSERT_TRUE(Digest128::fromHex(d.hex(), back));
    EXPECT_EQ(back, d);

    Digest128 scratch;
    EXPECT_FALSE(Digest128::fromHex("", scratch));
    EXPECT_FALSE(Digest128::fromHex("xyz", scratch));
    EXPECT_FALSE(Digest128::fromHex(std::string(31, 'a'), scratch));
    EXPECT_FALSE(Digest128::fromHex(std::string(32, 'g'), scratch));
}

TEST(Digest, DistinguishesNearbyInputs)
{
    // Same length, one bit apart, and prefix/suffix variants must all
    // land on distinct digests (any collision here is a bug, not luck:
    // these are fixed inputs).
    const Digest128 a = digest128("abcdefgh");
    const Digest128 b = digest128("abcdefgi");
    const Digest128 c = digest128("abcdefg");
    const Digest128 d = digest128("abcdefghh");
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
    EXPECT_NE(digest128(""), digest128(std::string(1, '\0')));
}

TEST(Digest, StableAcrossCalls)
{
    // Every tail length 0..15 exercises a different switch arm in the
    // MurmurHash3 tail handling.
    const std::string base = "0123456789abcdef";
    for (std::size_t len = 0; len <= base.size(); ++len) {
        const std::string s = base.substr(0, len);
        EXPECT_EQ(digest128(s), digest128(s)) << "len " << len;
    }
}

// ---------------------------------------------------------------------
// ByteWriter / ByteReader.

TEST(ByteCodec, RoundTripsEveryType)
{
    ByteWriter out;
    out.u8(0xab);
    out.u32(0xdeadbeef);
    out.u64(0x0123456789abcdefull);
    out.str("hello");
    out.str("");
    const std::vector<std::uint32_t> words = {0x01020304u, 0xfffffffeu};
    out.u32s(words);
    out.u32s({});

    ByteReader in(out.data());
    EXPECT_EQ(in.u8(), 0xab);
    EXPECT_EQ(in.u32(), 0xdeadbeefu);
    EXPECT_EQ(in.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(in.str(), "hello");
    EXPECT_EQ(in.str(), "");
    // u32s: a u64 count, then each value as u32() would write it.
    EXPECT_EQ(in.u64(), 2u);
    EXPECT_EQ(in.u32(), 0x01020304u);
    EXPECT_EQ(in.u32(), 0xfffffffeu);
    EXPECT_EQ(in.u64(), 0u);
    EXPECT_TRUE(in.ok());
    EXPECT_TRUE(in.done());
    EXPECT_EQ(in.remaining(), 0u);
}

TEST(ByteCodec, ReaderLatchesOnTruncation)
{
    ByteWriter out;
    out.u32(7);
    ByteReader in(out.data());
    EXPECT_EQ(in.u32(), 7u);
    // Past the end: zero-valued reads, failure latched, never throws.
    EXPECT_EQ(in.u64(), 0u);
    EXPECT_FALSE(in.ok());
    EXPECT_FALSE(in.done());
    EXPECT_EQ(in.str(), "");
    EXPECT_FALSE(in.ok());
}

TEST(ByteCodec, DoneRequiresFullConsumption)
{
    ByteWriter out;
    out.u32(1);
    out.u32(2);
    ByteReader in(out.data());
    EXPECT_EQ(in.u32(), 1u);
    EXPECT_TRUE(in.ok());
    EXPECT_FALSE(in.done()); // trailing bytes unread
}

// ---------------------------------------------------------------------
// Golden cache keys. These pin the full canonical serialization chain
// (Program, FabricConfig, PeConfig, CycleRunOptions, FaultPlan) behind
// workloadRunKey. See the file comment for the re-pin protocol.

TEST(GoldenDigest, CanonicalWorkloadUarchPairs)
{
    const WorkloadSizes sizes = WorkloadSizes::small();
    const CycleRunOptions defaults;

    // Single-cycle TDX, default options.
    EXPECT_EQ(workloadRunKey(makeDotProduct(sizes), PeConfig{},
                             defaults)
                  .hex(),
              "9cb04b03335c5d4f41eff0e62ce3021c");

    // Deepest pipeline with both optimizations.
    const PeConfig deep{PipelineShape{true, true, true}, true, true};
    EXPECT_EQ(workloadRunKey(makeBst(sizes), deep, defaults).hex(),
              "557c1d52f298e517f47fd16fec8562e3");

    // A seeded fault plan folds into the key.
    const FaultPlan plan = FaultPlan::parse("seed=7;drop:ch0@p0.01");
    CycleRunOptions injected;
    injected.faults = &plan;
    EXPECT_EQ(workloadRunKey(makeGcd(sizes), PeConfig{}, injected).hex(),
              "c8138288e3c7fe6a94724d2ead38da7c");
}

TEST(GoldenDigest, KeySeparatesEveryInput)
{
    const WorkloadSizes sizes = WorkloadSizes::small();
    const Workload dot = makeDotProduct(sizes);
    const CycleRunOptions defaults;
    const Digest128 base = workloadRunKey(dot, PeConfig{}, defaults);

    // Microarchitecture.
    EXPECT_NE(workloadRunKey(dot, PeConfig{PipelineShape{true}, false,
                                           false},
                             defaults),
              base);
    // Workload (different program + inputs).
    EXPECT_NE(workloadRunKey(makeMean(sizes), PeConfig{}, defaults),
              base);
    // Workload size (same program, different inputs).
    EXPECT_NE(workloadRunKey(makeDotProduct(WorkloadSizes::full()),
                             PeConfig{}, defaults),
              base);
    // One input word changed.
    Workload changed = dot;
    ASSERT_FALSE(changed.inputs.empty());
    ASSERT_FALSE(changed.inputs.back().words.empty());
    changed.inputs.back().words.back() ^= 1;
    EXPECT_NE(workloadRunKey(changed, PeConfig{}, defaults), base);
    // One segment moved, its words unchanged.
    Workload moved = dot;
    moved.inputs.back().base += 1;
    EXPECT_NE(workloadRunKey(moved, PeConfig{}, defaults), base);
    EXPECT_NE(workloadRunKey(moved, PeConfig{}, defaults),
              workloadRunKey(changed, PeConfig{}, defaults));
    // Run options.
    CycleRunOptions budget;
    budget.maxCycles = 12345;
    EXPECT_NE(workloadRunKey(dot, PeConfig{}, budget), base);
    // Fault plan (and its seed).
    const FaultPlan a = FaultPlan::parse("seed=1;drop:ch0@p0.5");
    const FaultPlan b = FaultPlan::parse("seed=2;drop:ch0@p0.5");
    CycleRunOptions fa, fb;
    fa.faults = &a;
    fb.faults = &b;
    EXPECT_NE(workloadRunKey(dot, PeConfig{}, fa), base);
    EXPECT_NE(workloadRunKey(dot, PeConfig{}, fa),
              workloadRunKey(dot, PeConfig{}, fb));
    // An empty plan is the same as no plan (neither injects).
    const FaultPlan none = FaultPlan::parse("seed=1");
    CycleRunOptions fn;
    fn.faults = &none;
    EXPECT_EQ(workloadRunKey(dot, PeConfig{}, fn), base);
}

// ---------------------------------------------------------------------
// SimCache in-memory tier.

TEST(SimCache, MissComputeHit)
{
    SimCache cache;
    const Digest128 key = digest128("key");
    int calls = 0;
    const auto compute = [&calls] {
        ++calls;
        return std::string("payload");
    };
    EXPECT_EQ(cache.getOrCompute(key, compute), "payload");
    EXPECT_EQ(cache.getOrCompute(key, compute), "payload");
    EXPECT_EQ(calls, 1);
    const SimCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.lookups, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.coalesced, 0u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SimCache, SingleFlightComputesOnce)
{
    SimCache cache;
    const Digest128 key = digest128("contended");
    constexpr unsigned kThreads = 8;
    std::atomic<int> calls{0};
    std::barrier gate(kThreads);
    std::vector<std::string> results(kThreads);
    {
        std::vector<std::jthread> threads;
        for (unsigned t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                gate.arrive_and_wait();
                results[t] = cache.getOrCompute(key, [&] {
                    calls.fetch_add(1);
                    // Hold leadership long enough that the other
                    // threads arrive while the computation is pending.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    return std::string("winner");
                });
            });
        }
    }
    EXPECT_EQ(calls.load(), 1);
    for (const std::string &r : results)
        EXPECT_EQ(r, "winner");
    const SimCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.lookups, kThreads);
    EXPECT_EQ(stats.misses, 1u);
    // However the race resolved, every lookup is exactly one of a
    // hit, a miss, or a coalesced wait.
    EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
              stats.lookups);
}

TEST(SimCache, LeaderExceptionReachesWaitersAndUnblocksRetry)
{
    SimCache cache;
    const Digest128 key = digest128("explodes");
    EXPECT_THROW(cache.getOrCompute(
                     key,
                     []() -> std::string {
                         throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    // The failed flight is forgotten: a retry computes fresh.
    EXPECT_EQ(cache.getOrCompute(
                  key, [] { return std::string("recovered"); }),
              "recovered");
    const SimCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
              stats.lookups);
}

TEST(SimCache, VerifyModeRecomputesOnHit)
{
    SimCache cache;
    cache.setVerifyHits(true);
    const Digest128 key = digest128("verified");
    const auto compute = [] { return std::string("stable"); };
    EXPECT_EQ(cache.getOrCompute(key, compute), "stable");
    EXPECT_EQ(cache.getOrCompute(key, compute), "stable");
    EXPECT_EQ(cache.stats().verifiedHits, 1u);

    // A cached payload that no longer matches the recomputation is a
    // determinism violation: fatal, not a silent repair.
    SimCache poisoned;
    poisoned.setVerifyHits(true);
    poisoned.put(key, "stale");
    EXPECT_THROW(poisoned.getOrCompute(key, compute), FatalError);
}

// ---------------------------------------------------------------------
// Persistent tier.

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

TEST(SimCachePersist, SaveLoadRoundTrip)
{
    TempFile file("simcache_roundtrip.tiasimc");
    SimCache cache;
    cache.put(digest128("a"), "alpha");
    cache.put(digest128("b"), std::string("\x00\x01\xff", 3));
    std::string error;
    ASSERT_TRUE(cache.save(file.path(), &error)) << error;

    SimCache warm;
    ASSERT_TRUE(warm.load(file.path(), &error)) << error;
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(warm.size(), 2u);
    EXPECT_EQ(warm.stats().loaded, 2u);
    ASSERT_TRUE(warm.peek(digest128("a")).has_value());
    EXPECT_EQ(*warm.peek(digest128("a")), "alpha");
    ASSERT_TRUE(warm.peek(digest128("b")).has_value());
    EXPECT_EQ(*warm.peek(digest128("b")),
              std::string("\x00\x01\xff", 3));
}

TEST(SimCachePersist, MissingFileIsAnEmptyTier)
{
    SimCache cache;
    std::string error;
    EXPECT_TRUE(cache.load(::testing::TempDir() +
                               "simcache_never_written.tiasimc",
                           &error));
    EXPECT_TRUE(error.empty());
    EXPECT_EQ(cache.size(), 0u);
}

TEST(SimCachePersist, TruncationDegradesToValidPrefix)
{
    TempFile file("simcache_truncated.tiasimc");
    SimCache cache;
    for (int i = 0; i < 8; ++i) {
        cache.put(digest128("entry " + std::to_string(i)),
                  std::string(100, static_cast<char>('a' + i)));
    }
    std::string error;
    ASSERT_TRUE(cache.save(file.path(), &error)) << error;

    // Chop the tail: some valid prefix of entries must survive and
    // the load must not crash or adopt garbage.
    std::ifstream in(file.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    in.close();
    bytes.resize(bytes.size() / 2);
    std::ofstream(file.path(), std::ios::binary)
        << bytes;

    SimCache warm;
    EXPECT_TRUE(warm.load(file.path(), &error));
    EXPECT_FALSE(error.empty()); // the dropped suffix is reported
    EXPECT_LT(warm.size(), 8u);
    // Whatever survived must be bit-exact (per-entry checksums).
    for (int i = 0; i < 8; ++i) {
        const auto entry =
            warm.peek(digest128("entry " + std::to_string(i)));
        if (entry.has_value()) {
            EXPECT_EQ(*entry,
                      std::string(100, static_cast<char>('a' + i)));
        }
    }
}

TEST(SimCachePersist, ForeignFileIsDiscardedWhole)
{
    TempFile file("simcache_foreign.tiasimc");
    std::ofstream(file.path(), std::ios::binary)
        << "this is not a cache file at all";
    SimCache cache;
    std::string error;
    EXPECT_FALSE(cache.load(file.path(), &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(cache.size(), 0u);
}

TEST(SimCachePersist, OlderSchemaTierIsIgnored)
{
    // A tier written under schema 2 holding a stale result under this
    // build's exact key: the header check must reject the whole file,
    // so runCycle recomputes instead of returning the stale payload.
    const Workload w = makeGcd(WorkloadSizes::small());
    const WorkloadRun expected = runCycle(w, PeConfig{});
    const Digest128 key = workloadRunKey(w, PeConfig{}, {});
    WorkloadRun stale = expected;
    stale.totalCycles += 1;

    TempFile file("simcache_old_schema.tiasimc");
    {
        SimCache old;
        old.put(key, encodeWorkloadRun(stale));
        ASSERT_TRUE(old.save(file.path(), nullptr));
    }
    std::fstream patch(file.path(),
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(12); // magic (8) + file version (4) precede the schema
    const char schema2[4] = {2, 0, 0, 0};
    patch.write(schema2, sizeof(schema2));
    patch.close();

    SimCache cache;
    std::string error;
    EXPECT_FALSE(cache.load(file.path(), &error));
    EXPECT_NE(error.find("version 2 != " +
                         std::to_string(kCacheSchemaVersion)),
              std::string::npos)
        << error;
    EXPECT_EQ(cache.size(), 0u);

    CycleRunOptions options;
    options.cache = &cache;
    EXPECT_EQ(runCycle(w, PeConfig{}, options), expected);
    EXPECT_EQ(cache.stats().misses, 1u);
    ASSERT_TRUE(cache.peek(key).has_value());
    EXPECT_EQ(decodeWorkloadRun(*cache.peek(key)), expected);
}

TEST(SimCachePersist, SavedFilesAreDeterministic)
{
    TempFile a("simcache_det_a.tiasimc");
    TempFile b("simcache_det_b.tiasimc");
    // Insert in different orders; the file is keyed-order either way.
    SimCache first, second;
    first.put(digest128("x"), "one");
    first.put(digest128("y"), "two");
    second.put(digest128("y"), "two");
    second.put(digest128("x"), "one");
    ASSERT_TRUE(first.save(a.path(), nullptr));
    ASSERT_TRUE(second.save(b.path(), nullptr));

    const auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        return buf.str();
    };
    EXPECT_EQ(slurp(a.path()), slurp(b.path()));
}

// ---------------------------------------------------------------------
// WorkloadRun codec and the end-to-end bit-identity contract.

TEST(RunCodec, WorkloadRunRoundTrips)
{
    const Workload w = makeGcd(WorkloadSizes::small());
    const WorkloadRun run = runCycle(w, PeConfig{});
    ASSERT_TRUE(run.ok());
    const auto decoded = decodeWorkloadRun(encodeWorkloadRun(run));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, run);
}

TEST(RunCodec, RejectsTruncatedAndTrailingBytes)
{
    const Workload w = makeGcd(WorkloadSizes::small());
    const WorkloadRun run = runCycle(w, PeConfig{});
    const std::string payload = encodeWorkloadRun(run);
    EXPECT_FALSE(decodeWorkloadRun(payload.substr(0, payload.size() / 2))
                     .has_value());
    EXPECT_FALSE(decodeWorkloadRun(payload + "x").has_value());
    EXPECT_FALSE(decodeWorkloadRun("").has_value());

    // Counts so large that count * element size wraps to 0: each must
    // be rejected as longer than the payload, not reach a reserve().
    const auto withCount = [](std::string bytes, std::size_t at,
                              std::uint64_t count) {
        ByteWriter value;
        value.u64(count);
        return bytes.replace(at, 8, value.data());
    };
    constexpr std::uint64_t kHuge = std::uint64_t{1} << 61;

    WorkloadRun marked = run;
    marked.dynamicInstructions = {0x0123456789abcdefull};
    marked.faultStats.lines = {{"count-marker", 0, 0}};
    const std::string bytes = encodeWorkloadRun(marked);
    ByteWriter pe;
    pe.u64(marked.dynamicInstructions[0]);
    const std::size_t pePos = bytes.find(pe.data());
    const std::size_t linePos = bytes.find("count-marker");
    ASSERT_NE(pePos, std::string::npos);
    ASSERT_NE(linePos, std::string::npos);
    ASSERT_TRUE(decodeWorkloadRun(bytes).has_value());
    // numPes precedes the per-PE counts (8 bytes each).
    EXPECT_FALSE(
        decodeWorkloadRun(withCount(bytes, pePos - 8, kHuge)).has_value());
    // The line count precedes the first name's length prefix (24 bytes
    // a line).
    EXPECT_FALSE(decodeWorkloadRun(withCount(bytes, linePos - 16, 3 * kHuge))
                     .has_value());

    // Enum bytes past the last enumerator (a payload from a build with
    // more values) are rejected, not decoded into a status named "?".
    marked.hang.summary = "summary-marker";
    const std::string enums = encodeWorkloadRun(marked);
    const std::size_t summaryPos = enums.find("summary-marker");
    const std::size_t outcomePos = enums.find("count-marker") - 17;
    ASSERT_NE(summaryPos, std::string::npos);
    ASSERT_TRUE(decodeWorkloadRun(enums).has_value());
    const auto withByte = [&enums](std::size_t at, std::uint8_t value) {
        std::string bytes = enums;
        bytes[at] = static_cast<char>(value);
        return bytes;
    };
    const auto lastStatus = static_cast<std::uint8_t>(RunStatus::Cancelled);
    const auto lastOutcome = static_cast<std::uint8_t>(FaultOutcome::Hung);
    EXPECT_TRUE(decodeWorkloadRun(withByte(0, lastStatus)).has_value());
    EXPECT_FALSE(decodeWorkloadRun(withByte(0, lastStatus + 1)).has_value());
    EXPECT_FALSE(
        decodeWorkloadRun(withByte(summaryPos - 9, 0xff)).has_value());
    EXPECT_TRUE(
        decodeWorkloadRun(withByte(outcomePos, lastOutcome)).has_value());
    EXPECT_FALSE(
        decodeWorkloadRun(withByte(outcomePos, lastOutcome + 1)).has_value());
}

TEST(RunCacheEndToEnd, CachedRunsAreBitIdentical)
{
    const Workload w = makeDotProduct(WorkloadSizes::small());
    const PeConfig uarch{PipelineShape{true, false, false}, true, true};

    const WorkloadRun uncached = runCycle(w, uarch);

    SimCache cache;
    CycleRunOptions options;
    options.cache = &cache;
    const WorkloadRun cold = runCycle(w, uarch, options);
    const WorkloadRun warm = runCycle(w, uarch, options);
    EXPECT_EQ(cold, uncached);
    EXPECT_EQ(warm, uncached);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(RunCacheEndToEnd, FaultInjectedRunsAreBitIdentical)
{
    const Workload w = makeStream(WorkloadSizes::small());
    const PeConfig uarch{PipelineShape{true, true, false}, true, false};
    const FaultPlan plan =
        FaultPlan::parse("seed=11;drop:ch0@p0.02;mispredict:pe0@p0.01");

    CycleRunOptions injected;
    injected.faults = &plan;
    const WorkloadRun uncached = runCycle(w, uarch, injected);

    SimCache cache;
    cache.setVerifyHits(true);
    CycleRunOptions cached = injected;
    cached.cache = &cache;
    const WorkloadRun cold = runCycle(w, uarch, cached);
    const WorkloadRun warm = runCycle(w, uarch, cached);
    EXPECT_EQ(cold, uncached);
    EXPECT_EQ(warm, uncached);
    // The warm hit re-simulated under --cache-verify semantics.
    EXPECT_EQ(cache.stats().verifiedHits, 1u);
}

TEST(RunCacheEndToEnd, MatrixWithCacheMatchesWithout)
{
    const std::vector<Workload> suite = {
        makeGcd(WorkloadSizes::small()),
        makeMean(WorkloadSizes::small()),
    };
    const std::vector<PeConfig> configs = {
        PeConfig{},
        PeConfig{PipelineShape{true, true, true}, true, true},
    };
    const CycleMatrix plain = runCycleMatrix(suite, configs, {}, 2);

    SimCache cache;
    CycleRunOptions options;
    options.cache = &cache;
    const CycleMatrix cold = runCycleMatrix(suite, configs, options, 2);
    const CycleMatrix warm = runCycleMatrix(suite, configs, options, 2);
    ASSERT_EQ(plain.runs.size(), cold.runs.size());
    EXPECT_EQ(plain.runs, cold.runs);
    EXPECT_EQ(plain.runs, warm.runs);
    const SimCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.lookups, 2 * plain.runs.size());
    EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
              stats.lookups);
    // The warm pass can only hit.
    EXPECT_GE(stats.hits, plain.runs.size());
}

TEST(RunCacheEndToEnd, CorruptEntryDegradesToRecompute)
{
    const Workload w = makeGcd(WorkloadSizes::small());
    const WorkloadRun expected = runCycle(w, PeConfig{});

    SimCache cache;
    // Poison the exact key with an undecodable payload.
    const Digest128 key = workloadRunKey(w, PeConfig{}, {});
    cache.put(key, "garbage that is not a WorkloadRun");

    CycleRunOptions options;
    options.cache = &cache;
    const WorkloadRun run = runCycle(w, PeConfig{}, options);
    EXPECT_EQ(run, expected);
    // The poisoned entry was replaced with a decodable one. Both
    // lookups count as cache-level hits — the decode failure and
    // recompute happen in runCycle, above getOrCompute.
    const WorkloadRun again = runCycle(w, PeConfig{}, options);
    EXPECT_EQ(again, expected);
    EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(RunCacheEndToEnd, TracingBypassesTheCache)
{
    const Workload w = makeGcd(WorkloadSizes::small());
    SimCache cache;
    CycleRunOptions options;
    options.cache = &cache;
    TeeSink sink; // empty tee: a null sink, but tracing is "on"
    options.trace = &sink;
    (void)runCycle(w, PeConfig{}, options);
    EXPECT_EQ(cache.stats().lookups, 0u);
    EXPECT_EQ(cache.size(), 0u);
}

} // namespace
