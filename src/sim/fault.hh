/**
 * @file
 * Deterministic fault injection for the cycle-accurate fabric.
 *
 * The pipelined PE variants exist because hazards (unresolved
 * predicates, stale queue status, register dependences) open stall and
 * mis-speculation windows; this module provokes those windows on
 * demand. A FaultPlan is a seeded list of named events — channel push
 * drops/duplicates/corruptions, stuck-full / stuck-empty queue status
 * (stressing the +Q effective-status logic), forced predicate
 * mispredictions (stressing the +P flush/recovery paths) and memory
 * read-latency spikes — and a FaultInjector replays the plan
 * bit-identically for a given seed. Every injection site is a named,
 * counted event so runs can be compared and regressions diagnosed.
 */

#ifndef TIA_SIM_FAULT_HH
#define TIA_SIM_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hh"

namespace tia {

/** The injectable fault classes. */
enum class FaultClass
{
    Drop,       ///< Lose a pushed token (channel site).
    Duplicate,  ///< Deliver a pushed token twice (channel site).
    Corrupt,    ///< Flip data bits of a pushed token (channel site).
    StuckFull,  ///< Channel status reads as full (channel site).
    StuckEmpty, ///< Channel status reads as empty (channel site).
    Mispredict, ///< Invert a predicate prediction (PE site).
    MemLatency, ///< Add latency to a memory read (read-port site).
};

/** What kind of agent an event targets. */
enum class FaultSite
{
    Channel,  ///< "chN" — a TaggedQueue in the fabric.
    Pe,       ///< "peN" — a PipelinedPe.
    ReadPort, ///< "rpN" — a MemoryReadPort.
};

/** @return the spec keyword for @p cls ("drop", "stuckfull", ...). */
const char *faultClassName(FaultClass cls);

/**
 * One fault event. Triggered either probabilistically (each
 * opportunity fires with @ref probability) or by cycle window
 * (@ref start for @ref length cycles; length 0 means forever).
 */
struct FaultEvent
{
    FaultClass cls = FaultClass::Drop;
    FaultSite site = FaultSite::Channel;
    unsigned index = 0; ///< Channel / PE / read-port number.

    /** Per-opportunity firing probability; negative = window mode. */
    double probability = -1.0;
    Cycle start = 0;  ///< Window start (window mode).
    Cycle length = 0; ///< Window length in cycles; 0 = unbounded.

    Word mask = 0;      ///< Corruption XOR mask (0 = random nonzero).
    unsigned extra = 8; ///< Added cycles for MemLatency events.

    /** Canonical spec form, e.g. "drop:ch0@p0.01". */
    std::string name() const;
};

/**
 * A seeded, ordered set of fault events.
 *
 * Text form: semicolon-separated entries, e.g.
 *   "seed=42;drop:ch0@p0.01;stuckfull:ch1@c100+50;mispredict:pe0@p1;
 *    corrupt:ch2@p0.005,mask=0xff;memspike:rp0@p0.1,extra=16"
 * An entry is CLASS:SITE@TRIGGER[,KEY=VALUE...]; TRIGGER is either
 * pP (probability P per opportunity) or cS+L (cycles [S, S+L), +L
 * optional meaning "forever").
 */
struct FaultPlan
{
    std::uint64_t seed = 1;
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }

    /** Parse the text form. @throws FatalError on malformed specs. */
    static FaultPlan parse(const std::string &spec);

    /** Canonical text form (reparseable). */
    std::string toString() const;
};

/** Per-event injection counts; equality-comparable for determinism tests. */
struct FaultStats
{
    struct Line
    {
        std::string name;
        std::uint64_t fired = 0;     ///< Injections performed.
        std::uint64_t declined = 0;  ///< Opportunities that rolled no.

        bool operator==(const Line &) const = default;
    };

    std::vector<Line> lines; ///< Parallel to FaultPlan::events.

    std::uint64_t totalFired() const;
    std::string summary() const;

    bool operator==(const FaultStats &) const = default;
};

/**
 * Executes a FaultPlan against a running fabric. The CycleFabric
 * installs one injector in every channel, PE and read port, and calls
 * beginCycle() once per simulated cycle; with a fixed seed the whole
 * injection sequence is a pure function of the simulation, so two
 * identical runs produce identical faults and identical stats.
 */
class FaultInjector
{
  public:
    /** What a channel does with a pushed token. */
    enum class PushAction
    {
        Keep,      ///< Deliver the (possibly corrupted) token normally.
        Drop,      ///< Silently lose the token.
        Duplicate, ///< Deliver the token twice (capacity permitting).
    };

    explicit FaultInjector(FaultPlan plan);

    /** Advance the notion of "current cycle"; rolls stuck-status dice. */
    void beginCycle(Cycle now);

    /** Channel hook, once per push; may corrupt @p token in place. */
    PushAction onPush(unsigned channel, Token &token);

    /** True while channel @p channel must report itself empty. */
    bool stuckEmpty(unsigned channel) const;

    /** True while channel @p channel must report itself full. */
    bool stuckFull(unsigned channel) const;

    /** PE hook: invert this cycle's prediction on PE @p pe? */
    bool flipPrediction(unsigned pe);

    /** Read-port hook: extra latency for the request accepted now. */
    unsigned extraReadLatency(unsigned port);

    const FaultPlan &plan() const { return plan_; }
    const FaultStats &stats() const { return stats_; }

  private:
    /** Does window/probability event @p e apply to this opportunity? */
    bool rolls(std::size_t eventIndex);

    std::uint64_t nextRandom();
    double uniform();

    FaultPlan plan_;
    FaultStats stats_;
    Cycle now_ = 0;
    std::uint64_t rngState_;
    /** Per-event "stuck active this cycle" cache (probability mode). */
    std::vector<bool> stuckActive_;
};

} // namespace tia

#endif // TIA_SIM_FAULT_HH
