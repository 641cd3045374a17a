#include "rng.hh"

#include <cmath>

#include "logging.hh"

namespace twocs {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/**
 * Marsaglia and Tsang's Ziggurat for the standard normal ("The
 * Ziggurat Method for Generating Random Variables", J. Stat. Softw.
 * 5(8), 2000), in the double-precision layout of Doornik's ZIGNOR
 * ("An Improved Ziggurat Method to Generate Normal Random Samples",
 * 2005), which takes the strip and the uniform from independent
 * bits. kStrips strips of equal area kArea lie under exp(-x^2 / 2).
 * Strip i >= 1 spans heights [f(x[i]), f(x[i + 1])] and is x[i]
 * wide; strip 0 is the rectangle under f(kR) plus the tail beyond
 * kR, given the virtual width x[0] = kArea / f(kR). ratio[i] =
 * x[i + 1] / x[i] is the fraction of strip i wholly under the curve.
 */
struct Ziggurat
{
    static constexpr unsigned kStrips = 128;
    static constexpr double kR = 3.442619855899;
    static constexpr double kArea = 9.91256303526217e-3;

    double x[kStrips + 1];
    double ratio[kStrips];

    Ziggurat()
    {
        double f = std::exp(-0.5 * kR * kR);
        x[0] = kArea / f;
        x[1] = kR;
        x[kStrips] = 0.0;
        for (unsigned i = 2; i < kStrips; ++i) {
            x[i] = std::sqrt(-2.0 * std::log(kArea / x[i - 1] + f));
            f = std::exp(-0.5 * x[i] * x[i]);
        }
        for (unsigned i = 0; i < kStrips; ++i)
            ratio[i] = x[i + 1] / x[i];
    }
};

/** The tables, built once on first use. */
const Ziggurat &
ziggurat()
{
    static const Ziggurat tables;
    return tables;
}

/** |Z| conditioned on |Z| > kR, by Marsaglia's exponential
 *  rejection: a shifted exponential proposal x, accepted with
 *  probability exp(-x^2 / 2). 1 - U lies in (0, 1], so the logs
 *  are finite. */
double
normalTail(Rng &rng)
{
    for (;;) {
        const double x = -std::log(1.0 - rng.nextDouble()) / Ziggurat::kR;
        const double y = -std::log(1.0 - rng.nextDouble());
        if (2.0 * y >= x * x)
            return Ziggurat::kR + x;
    }
}

/**
 * The rest of a Ziggurat draw whose point (strip i, signed uniform u)
 * fell outside its strip's rectangle, about 3% of draws: the tail for
 * the base strip, else the wedge test, and a fresh draw when the
 * wedge rejects. Kept out of line so the rectangle path stays a leaf.
 */
[[gnu::noinline]] double
outsideRectangle(Rng &rng, unsigned i, double u)
{
    const Ziggurat &z = ziggurat();
    if (i == 0)
        return u < 0.0 ? -normalTail(rng) : normalTail(rng);
    // Accept if a uniform height in the strip falls under
    // exp(-x^2 / 2); f0 and f1 are the strip's edges over f(x).
    const double x = u * z.x[i];
    const double f0 = std::exp(-0.5 * (z.x[i] * z.x[i] - x * x));
    const double f1 = std::exp(-0.5 * (z.x[i + 1] * z.x[i + 1] - x * x));
    if (f1 + rng.nextDouble() * (f0 - f1) < 1.0)
        return x;
    return rng.nextGaussian();
}

} // namespace

std::uint64_t
splitmixSeed(std::uint64_t seed, std::uint64_t index)
{
    // XOR the golden-ratio-spread index into the seed (rather than
    // adding, as the Rng constructor's state expansion does), then
    // run one finalizer round over the combined word.
    std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
    return splitmix64(x);
}

Rng::Rng(std::uint64_t seed)
{
    for (auto &s : state_)
        s = splitmix64(seed);
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double
Rng::nextDouble()
{
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

double
Rng::nextGaussian()
{
    // The strip index (bits 0-6) and a signed uniform u in [-1, 1)
    // (bits 10-63 as a signed integer) come from disjoint bits of
    // one draw, so they are independent; no branch on the sign.
    const Ziggurat &z = ziggurat();
    const std::uint64_t bits = nextU64();
    const unsigned i = bits & (Ziggurat::kStrips - 1);
    const double u =
        static_cast<double>(static_cast<std::int64_t>(bits) >> 10) *
        0x1.0p-53;
    // Inside the strip's rectangle: under the density for sure.
    if (std::fabs(u) < z.ratio[i])
        return u * z.x[i];
    return outsideRectangle(*this, i, u);
}

double
Rng::noiseFactor(double rel_stddev)
{
    fatalIf(rel_stddev < 0.0, "noise stddev must be >= 0");
    if (rel_stddev == 0.0)
        return 1.0;
    // Log-normal with unit mean: exp(sigma*Z - sigma^2/2) where
    // sigma approximates the relative stddev for small values.
    if (rel_stddev != cachedRelStddev_) {
        cachedRelStddev_ = rel_stddev;
        cachedSigma_ =
            std::sqrt(std::log(1.0 + rel_stddev * rel_stddev));
    }
    const double sigma = cachedSigma_;
    return std::exp(sigma * nextGaussian() - 0.5 * sigma * sigma);
}

} // namespace twocs
