/**
 * @file
 * The Table 3 microbenchmark suite.
 *
 * Ten hand-written triggered-instruction programs exhibiting the range
 * of intra-PE behaviors the paper studies: memory-access intensive
 * (bst), compute heavy (dot_product), data-dependent branchy (merge,
 * filter, string_search), long predictable loops (gcd, mean, stream),
 * and mixed (udiv, arg_max). Each workload carries its fabric wiring,
 * its input words (generated deterministically, held as data), and a
 * C++ golden model used to validate the memory image a run produces.
 */

#ifndef TIA_WORKLOADS_WORKLOAD_HH
#define TIA_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <string>
#include <vector>

#include "core/program.hh"
#include "sim/fabric_config.hh"
#include "sim/memory.hh"

namespace tia {

/** Size knobs for the suite. */
struct WorkloadSizes
{
    unsigned bstNodes = 1023;      ///< Nodes in the search tree.
    unsigned bstQueries = 512;     ///< Keys searched.
    Word gcdA = 246'913;           ///< First GCD operand.
    Word gcdB = 3;                 ///< Second GCD operand.
    unsigned meanCount = 4096;     ///< Elements averaged (power of two).
    unsigned argMaxCount = 8192;   ///< Elements scanned.
    unsigned dotCount = 10'000;    ///< Vector length (20,003 worker ins).
    unsigned filterCount = 4096;   ///< Elements filtered.
    unsigned mergeCount = 2048;    ///< Elements per sorted input list.
    unsigned streamCount = 16'384; ///< Elements stored.
    unsigned searchChars = 8192;   ///< Text length in characters.
    unsigned udivPairs = 96;       ///< Numerator/denominator pairs.

    /** Paper-scale sizes (default constructor). */
    static WorkloadSizes full() { return {}; }

    /** Reduced sizes for fast unit testing. */
    static WorkloadSizes
    small()
    {
        WorkloadSizes sizes;
        sizes.bstNodes = 63;
        sizes.bstQueries = 12;
        sizes.gcdA = 541;
        sizes.gcdB = 3;
        sizes.meanCount = 64;
        sizes.argMaxCount = 80;
        sizes.dotCount = 50;
        sizes.filterCount = 64;
        sizes.mergeCount = 48;
        sizes.streamCount = 96;
        sizes.searchChars = 256;
        sizes.udivPairs = 6;
        return sizes;
    }
};

/** Input words preloaded at consecutive addresses from @ref base. */
struct MemorySegment
{
    Word base = 0;
    std::vector<Word> words;
};

/** A fully described benchmark instance. */
struct Workload
{
    std::string name;
    std::string description;
    Program program;
    FabricConfig config;
    /** The PE whose performance counters the paper reports (Table 3). */
    unsigned workerPe = 0;
    /**
     * The input regions of memory, written before the run. Plain data,
     * so the cache key (cache/run_cache.hh) reads them directly.
     */
    std::vector<MemorySegment> inputs;
    /**
     * Check the output region against the golden model.
     * @return an empty string on success, else a failure description.
     */
    std::function<std::string(const Memory &)> check;

    /** Write @ref inputs into @p memory, in order. */
    void
    preload(Memory &memory) const
    {
        for (const MemorySegment &segment : inputs) {
            for (std::size_t i = 0; i < segment.words.size(); ++i)
                memory.write(segment.base + static_cast<Word>(i),
                             segment.words[i]);
        }
    }
};

/** Individual factories. */
Workload makeBst(const WorkloadSizes &sizes);
Workload makeGcd(const WorkloadSizes &sizes);
Workload makeMean(const WorkloadSizes &sizes);
Workload makeArgMax(const WorkloadSizes &sizes);
Workload makeDotProduct(const WorkloadSizes &sizes);
Workload makeFilter(const WorkloadSizes &sizes);
Workload makeMerge(const WorkloadSizes &sizes);
Workload makeStream(const WorkloadSizes &sizes);
Workload makeStringSearch(const WorkloadSizes &sizes);
Workload makeUdiv(const WorkloadSizes &sizes);

/** The whole suite in the paper's Table 3 order. */
std::vector<Workload> allWorkloads(const WorkloadSizes &sizes);

/** Deterministic xorshift PRNG used by all input generators. */
class Xorshift
{
  public:
    explicit Xorshift(std::uint64_t seed) : state_(seed ? seed : 0x9e3779b9)
    {
    }

    std::uint32_t
    next()
    {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        return static_cast<std::uint32_t>(state_ >> 16);
    }

    /** Uniform value in [0, bound). */
    std::uint32_t
    below(std::uint32_t bound)
    {
        return bound == 0 ? 0 : next() % bound;
    }

  private:
    std::uint64_t state_;
};

} // namespace tia

#endif // TIA_WORKLOADS_WORKLOAD_HH
