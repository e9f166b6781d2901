/**
 * @file
 * Content-addressed simulation result cache with single-flight dedup
 * and an optional persistent warm tier.
 *
 * A cycle-accurate run is a pure function of its inputs, so its result
 * can be memoized under a digest of those inputs (cache/serialize.hh
 * defines the canonical byte form, cache/digest.hh the digest). The
 * cache itself is deliberately ignorant of what it stores: entries are
 * opaque byte strings. Its one client today is runCycle's cached
 * dispatch of WorkloadRun records (cache/run_cache.hh), which
 * tia-sweep, tia-serve and the bench drivers all go through.
 *
 * Three properties matter more than raw hit speed:
 *
 *  - **Single-flight**: when concurrent serve requests ask for the same
 *    key, several threads can request it before the first one
 *    finishes. Exactly one computes; the rest block on it and reuse
 *    the result (counted as `coalesced`, distinct from hits). Within
 *    one tia-sweep matrix equal keys share a sibling group and run on
 *    one thread, so they hit rather than coalesce.
 *
 *  - **Corruption degrades to a miss, never a crash**: the persistent
 *    tier (TIASIMC1, see docs/simcache.md) checksums every payload and
 *    versions both the file format and the key schema. A truncated,
 *    corrupt or version-mismatched file costs a recompute, nothing
 *    else.
 *
 *  - **Verifiability**: verify-hits mode re-runs the computation on
 *    every hit and fails loudly unless the cached bytes are identical,
 *    extending the repo's bit-identity testing discipline to the cache
 *    (`tia-sweep --cache-verify`).
 */

#ifndef TIA_CACHE_SIMCACHE_HH
#define TIA_CACHE_SIMCACHE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "cache/digest.hh"
#include "obs/json.hh"

namespace tia {

/** Thread-safe content-addressed byte-payload cache. */
class SimCache
{
  public:
    /**
     * Lookup/outcome counters. Every getOrCompute call is classified
     * exactly once: hit (payload already resident), miss (this call
     * became the leader and computed), or coalesced (blocked on a
     * concurrent leader for the same key). The identity
     * hits + misses + coalesced == lookups always holds — including
     * when a leader's computation throws, because the miss is counted
     * at leadership claim.
     */
    struct Stats
    {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t coalesced = 0;
        /** Hits re-simulated and compared in verify-hits mode. */
        std::uint64_t verifiedHits = 0;
        /** Entries adopted from a persistent tier via load(). */
        std::uint64_t loaded = 0;
    };

    /** How one getOrCompute call was classified (see Stats). */
    enum class Lookup
    {
        Hit,
        Miss,
        Coalesced,
    };

    SimCache() = default;
    SimCache(const SimCache &) = delete;
    SimCache &operator=(const SimCache &) = delete;

    /**
     * Re-run the computation on every hit and compare byte-for-byte
     * (`--cache-verify`). A mismatch is a FatalError: it means either
     * the key schema misses an input or the cache file lied.
     */
    void setVerifyHits(bool verify) { verifyHits_ = verify; }

    bool verifyHits() const { return verifyHits_; }

    /**
     * The core operation: return the payload for @p key, invoking
     * @p compute at most once per key across all concurrent callers.
     *
     * If @p compute throws, the exception propagates to the leader and
     * is rethrown in every coalesced waiter; nothing is cached, and a
     * later call for the same key computes afresh.
     *
     * In verify-hits mode a hit additionally invokes @p compute and
     * compares; see setVerifyHits. @p lookup, when given, receives how
     * this call was counted.
     */
    std::string getOrCompute(const Digest128 &key,
                             const std::function<std::string()> &compute,
                             Lookup *lookup = nullptr);

    /** Lookup without computing or counting a cache lookup. */
    std::optional<std::string> peek(const Digest128 &key) const;

    /** Insert or overwrite an entry directly. */
    void put(const Digest128 &key, std::string payload);

    /**
     * Drop an entry (used when a persisted payload fails to decode:
     * the entry degrades to a miss and is recomputed and rewritten).
     */
    void erase(const Digest128 &key);

    /** Resident entry count. */
    std::size_t size() const;

    /**
     * Adopt entries from a TIASIMC1 file. A missing file is an empty
     * warm tier (returns true); a bad magic, version mismatch or
     * corrupt header discards the file entirely; per-entry corruption
     * keeps the valid prefix and drops the rest. Never throws for file
     * content reasons — the worst case is an empty cache. Returns
     * false and sets @p error only when nothing could be adopted for a
     * reason worth reporting (the caller still proceeds cache-cold).
     */
    bool load(const std::string &path, std::string *error = nullptr);

    /**
     * Persist all resident entries to @p path in TIASIMC1 form:
     * written to a temporary file in the same directory and renamed
     * into place, so readers never observe a half-written cache and a
     * crash mid-save leaves the previous file intact. Entries are
     * written in key order, so equal contents produce identical files.
     *
     * Saves are dirty-skipped: when the resident entries are known to
     * already match the file at @p path — a clean load() into an empty
     * cache, or a previous save() to the same path, with no mutation
     * since — save() returns true without touching the filesystem.
     * A fully warm sweep therefore skips the end-of-run cache rewrite
     * entirely (the file is byte-identical either way, asserted by the
     * warm-vs-cold ctest fixtures).
     */
    bool save(const std::string &path, std::string *error = nullptr);

    Stats stats() const;

    /** The tia-metrics/v1 "cache" block (see docs/observability.md). */
    JsonValue statsJson() const;

    /** One-line human summary for --stats / stderr. */
    std::string statsSummary() const;

  private:
    /** One in-progress computation that waiters coalesce onto. */
    struct InFlight
    {
        bool done = false;
        std::string payload;
        std::exception_ptr error;
    };

    mutable std::mutex mutex_;
    std::condition_variable done_;
    /** Ordered so save() is deterministic without a sort pass. */
    std::map<Digest128, std::string> entries_;
    std::map<Digest128, std::shared_ptr<InFlight>> pending_;
    Stats stats_;
    bool verifyHits_ = false;
    /** Mutation generation; bumped on every entry change (dirty-skip). */
    std::uint64_t generation_ = 0;
    /** Generation the file at savedPath_ is known to hold. */
    std::uint64_t savedGeneration_ = ~std::uint64_t{0};
    std::string savedPath_;
};

} // namespace tia

#endif // TIA_CACHE_SIMCACHE_HH
