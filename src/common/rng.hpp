/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic decision in the simulator and the workload engines draws
 * from an explicitly seeded Rng instance, so that identical configurations
 * reproduce identical simulated executions cycle for cycle.  The generator
 * is xoshiro256**, which is fast, tiny, and has no global state.
 */

#ifndef DBSIM_COMMON_RNG_HPP
#define DBSIM_COMMON_RNG_HPP

#include <bit>
#include <cstdint>

#include "common/snapshot.hpp"

namespace dbsim {

/**
 * A deterministic random-number stream (xoshiro256**).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound) with rejection to avoid modulo bias. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        if (bound <= 1)
            return 0;
        // Lemire-style rejection: keep the top bits unbiased.
        const std::uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Geometric-ish run length: 1 + number of successes of probability
     * @p cont, clamped to @p max.  Used for burst/stream lengths.
     */
    std::uint32_t runLength(double cont, std::uint32_t max);

    /**
     * Sample from a Zipf-like distribution over [0, n) with skew @p s
     * using inverse-power rejection sampling.  Hot items get low indices.
     */
    std::uint64_t zipf(std::uint64_t n, double s);

    /** Derive an independent child stream (for per-process generators). */
    Rng fork();

    void
    saveState(snap::Writer &w) const
    {
        for (std::uint64_t s : s_)
            w.u64(s);
    }

    void
    restoreState(snap::Reader &r)
    {
        for (std::uint64_t &s : s_)
            s = r.u64();
    }

  private:
    std::uint64_t s_[4];
};

} // namespace dbsim

#endif // DBSIM_COMMON_RNG_HPP
