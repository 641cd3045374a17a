/**
 * @file
 * A small deterministic PRNG (xoshiro256**) for the places the
 * library deliberately injects randomness (measurement-noise
 * modelling). Seeded explicitly everywhere — the simulator itself
 * stays bit-reproducible.
 */

#ifndef TWOCS_UTIL_RNG_HH
#define TWOCS_UTIL_RNG_HH

#include <cstdint>
#include <span>

namespace twocs {

/**
 * Derive an independent stream seed from a base seed and a stream
 * index via a splitmix64 finalizer mix of the pair. Adjacent base
 * seeds with `seed + i` style derivation produce almost entirely
 * overlapping stream families (base s, stream 1 == base s+1,
 * stream 0); this mix decorrelates both axes. The mix is distinct
 * from Rng's own state expansion, so splitmixSeed(s, 0) does not
 * collide with any internal Rng(s) state word.
 */
std::uint64_t splitmixSeed(std::uint64_t seed, std::uint64_t index);

/** xoshiro256** with splitmix64 seeding. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed);

    /** Uniform 64-bit value. */
    std::uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double nextDouble();

    /**
     * Standard normal deviate: Marsaglia and Tsang's Ziggurat over
     * 128 strips, exact (rectangle, wedge and tail draws together
     * give the normal density, not an approximation of it). About
     * 97% of draws cost one nextU64() and one multiply.
     */
    double nextGaussian();

    /**
     * Log-normal multiplicative noise factor with the given relative
     * standard deviation; mean 1. rel_stddev == 0 returns exactly 1.
     */
    double noiseFactor(double rel_stddev);

    /**
     * One noise pass: out[indices[k]] = base[indices[k]] *
     * noiseFactor(rel_stddev) for every k, in order, drawing exactly
     * the sequence the per-call form would (same bits). The sigma
     * setup and the stddev check run once per pass, not per draw.
     * base and out have one slot per item; slots not named by
     * `indices` are left alone.
     */
    void scaleByNoise(double rel_stddev, std::span<const double> base,
                      std::span<const std::uint32_t> indices,
                      std::span<double> out);

  private:
    /** The log-normal sigma for rel_stddev > 0, via the cache. */
    double noiseSigma(double rel_stddev);


    std::uint64_t state_[4];
    /** noiseFactor()'s derived sigma, cached per rel_stddev: the
     *  sqrt/log setup dominates a draw and almost every caller uses
     *  one stddev for a whole study. Same formula, same bits. */
    double cachedRelStddev_ = -1.0;
    double cachedSigma_ = 0.0;
};

} // namespace twocs

#endif // TWOCS_UTIL_RNG_HH
