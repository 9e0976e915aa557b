/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of the simulation draws from an Rng that
 * is seeded from a single root seed, so a run is exactly reproducible.
 * Components should own a private Rng forked from their parent's
 * (Rng::fork) rather than sharing one stream; this keeps results stable
 * when one component changes how many numbers it consumes.
 */

#ifndef COMMON_RANDOM_HH
#define COMMON_RANDOM_HH

#include <cstdint>

namespace common {

/**
 * A small, fast, deterministic PRNG (xoshiro256** with a splitmix64
 * seeding routine). Not cryptographic; plenty for simulation.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. The same seed yields the same stream. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Standard normal deviate (Box-Muller, no caching). */
    double nextGaussian();

    /** Normal deviate with the given mean and standard deviation. */
    double nextGaussian(double mean, double stddev);

    /** Bernoulli trial: true with probability p. */
    bool nextBool(double p);

    /**
     * Derive an independent child stream. Forking consumes one value
     * from this stream; children forked in the same order are stable.
     */
    Rng fork();

  private:
    std::uint64_t s_[4];
};

} // namespace common

#endif // COMMON_RANDOM_HH
