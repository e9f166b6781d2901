/**
 * @file
 * Speculative predicate unit (+P, paper Section 5.2).
 *
 * One two-bit saturating counter per predicate register. Because
 * triggered programs typically dedicate a predicate to each distinct
 * binary decision, "this bank of predictors becomes a per-branch
 * predictor without the traditional overhead of indexing a bank of
 * predictors via the instruction pointer" (Section 5.4).
 */

#ifndef TIA_UARCH_PREDICTOR_HH
#define TIA_UARCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "core/logging.hh"

namespace tia {

/** A bank of per-predicate two-bit saturating counters. */
class PredicatePredictor
{
  public:
    explicit PredicatePredictor(unsigned num_preds)
        : counters_(num_preds, kWeaklyTaken)
    {
    }

    /** Predicted next value of predicate @p index. */
    bool
    predict(unsigned index) const
    {
        return counters_.at(index) >= kWeaklyTaken;
    }

    /** Train counter @p index with the @p actual outcome. */
    void
    train(unsigned index, bool actual)
    {
        auto &counter = counters_.at(index);
        if (actual) {
            if (counter < kStronglyTaken)
                ++counter;
        } else {
            if (counter > kStronglyNotTaken)
                --counter;
        }
    }

    /** Raw counter state (tests; control memo packing). */
    std::uint8_t counter(unsigned index) const { return counters_.at(index); }

    /** Restore a raw counter state read by counter(). */
    void
    setCounter(unsigned index, std::uint8_t value)
    {
        counters_.at(index) = value;
    }

    /** Number of counters, one per predicate. */
    unsigned size() const { return static_cast<unsigned>(counters_.size()); }

    /** Reset all counters to weakly taken. */
    void
    reset()
    {
        for (auto &counter : counters_)
            counter = kWeaklyTaken;
    }

    static constexpr std::uint8_t kStronglyNotTaken = 0;
    static constexpr std::uint8_t kWeaklyNotTaken = 1;
    static constexpr std::uint8_t kWeaklyTaken = 2;
    static constexpr std::uint8_t kStronglyTaken = 3;

  private:
    std::vector<std::uint8_t> counters_;
};

} // namespace tia

#endif // TIA_UARCH_PREDICTOR_HH
