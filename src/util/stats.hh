/**
 * @file
 * Small statistics toolkit used by the operator-model fitting and the
 * accuracy evaluation (geomean errors, least-squares fits), plus the
 * one nearest-rank percentile behind every latency report.
 */

#ifndef TWOCS_UTIL_STATS_HH
#define TWOCS_UTIL_STATS_HH

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace twocs {

/** Arithmetic mean; fatal() on an empty range. */
double mean(std::span<const double> xs);

/**
 * Geometric mean; fatal() on an empty range or non-positive values.
 * The paper reports operator-model errors as geomeans (Section 4.3.8).
 */
double geomean(std::span<const double> xs);

/** Population standard deviation. */
double stddev(std::span<const double> xs);

/** Smallest element; fatal() on an empty range. */
double minOf(std::span<const double> xs);

/** Largest element; fatal() on an empty range. */
double maxOf(std::span<const double> xs);

/** |predicted - actual| / actual; fatal() when actual == 0. */
double relativeError(double predicted, double actual);

/**
 * Nearest-rank percentile of an unsorted sample: the element at rank
 * round(q * (size - 1)) of the sorted sample, so q = 0 is the
 * minimum and q = 1 the maximum. T{} when the sample is empty.
 * `--report`, `--metrics` and the trace summary all use it.
 */
template <typename T>
T
percentile(std::vector<T> xs, double q)
{
    if (xs.empty())
        return T{};
    std::sort(xs.begin(), xs.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(xs.size() - 1) + 0.5);
    return xs[std::min(rank, xs.size() - 1)];
}

/** Result of a one-dimensional least-squares fit y = slope*x + bias. */
struct LinearFit
{
    double slope = 0.0;
    double bias = 0.0;
    /** Coefficient of determination of the fit on its inputs. */
    double r2 = 0.0;

    double eval(double x) const { return slope * x + bias; }
};

/**
 * Ordinary least squares for y = slope*x + bias.
 * Requires at least two points with distinct x values.
 */
LinearFit fitLinear(std::span<const double> xs, std::span<const double> ys);

/**
 * Least squares through the origin: y = slope*x.
 * This is the paper's operator-scaling form (runtime proportional to
 * an algorithmic complexity predictor). Requires one nonzero x.
 */
LinearFit fitProportional(std::span<const double> xs,
                          std::span<const double> ys);

/**
 * Power-law fit y = a * x^b via log-log linear regression.
 * Requires positive xs and ys.
 */
struct PowerFit
{
    double scale = 0.0;    //!< a
    double exponent = 0.0; //!< b
    double r2 = 0.0;

    double eval(double x) const;
};

PowerFit fitPower(std::span<const double> xs, std::span<const double> ys);

/** Convenience accumulator for streams of relative errors. */
class ErrorAccumulator
{
  public:
    /** Record one (predicted, actual) pair. */
    void add(double predicted, double actual);

    std::size_t count() const { return errors_.size(); }
    double geomeanError() const;
    double meanError() const;
    double maxError() const;

  private:
    std::vector<double> errors_;
};

} // namespace twocs

#endif // TWOCS_UTIL_STATS_HH
