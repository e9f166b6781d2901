/**
 * @file
 * Incremental energy-delay Pareto frontier.
 *
 * DesignSpace::paretoFrontier is a batch algorithm: sort all points by
 * delay, then sweep keeping strict energy improvements. That forces
 * the full >4,000-point DSE to finish before the first frontier point
 * exists. IncrementalPareto maintains the same frontier online, one
 * point per add(), so the in-order sink of
 * DesignSpace::enumerateStreamed can stream frontier updates while
 * later shards are still being evaluated, and stop once the frontier
 * has been stable for a configurable window (tia-sweep
 * --incremental). The stop is decided on the sunk prefix alone, so
 * the early exit is the same at every --jobs.
 *
 * Equivalence with the batch algorithm (pinned by
 * tests/test_sweep_pipeline.cc): after add()ing every point, in any
 * order, frontier() holds the same (ns, pj) set as
 * paretoFrontier(points). Dominance is weak — a new point is rejected
 * when an existing frontier point is no worse in both coordinates, so
 * among exact (ns, pj) duplicates the first arrival wins; the batch
 * sweep keeps the same single representative modulo which duplicate it
 * saw first.
 */

#ifndef TIA_VLSI_PARETO_HH
#define TIA_VLSI_PARETO_HH

#include <cstddef>
#include <vector>

#include "vlsi/dse.hh"

namespace tia {

class IncrementalPareto
{
  public:
    /**
     * Offer one design point. Returns true when the frontier changed
     * (the point was non-dominated and is now on the frontier; any
     * points it dominates were evicted).
     */
    bool add(const DesignPoint &point);

    /**
     * Current frontier, sorted by strictly ascending delay (and hence
     * strictly descending energy) — the same order the batch
     * paretoFrontier returns.
     */
    const std::vector<DesignPoint> &frontier() const { return frontier_; }

    std::size_t size() const { return frontier_.size(); }

    /** Points offered via add() so far. */
    std::size_t pointsSeen() const { return seen_; }

    /** add() calls that changed the frontier. */
    std::size_t updates() const { return updates_; }

    /** Frontier points evicted by later dominating points. */
    std::size_t evictions() const { return evictions_; }

  private:
    std::vector<DesignPoint> frontier_;
    std::size_t seen_ = 0;
    std::size_t updates_ = 0;
    std::size_t evictions_ = 0;
};

} // namespace tia

#endif // TIA_VLSI_PARETO_HH
