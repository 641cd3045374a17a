#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.hh"
#include "util/stats.hh"

namespace twocs {
namespace {

TEST(Stats, MeanOfKnownValues)
{
    const std::vector<double> xs = { 1.0, 2.0, 3.0, 4.0 };
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanOfSingleton)
{
    const std::vector<double> xs = { 7.0 };
    EXPECT_DOUBLE_EQ(mean(xs), 7.0);
}

TEST(Stats, MeanOfEmptyRangeIsFatal)
{
    EXPECT_THROW(mean({}), FatalError);
}

TEST(Stats, GeomeanOfKnownValues)
{
    const std::vector<double> xs = { 1.0, 4.0 };
    EXPECT_DOUBLE_EQ(geomean(xs), 2.0);
}

TEST(Stats, GeomeanEqualsValueForConstantInput)
{
    const std::vector<double> xs = { 3.5, 3.5, 3.5 };
    EXPECT_NEAR(geomean(xs), 3.5, 1e-12);
}

TEST(Stats, GeomeanRejectsNonPositive)
{
    const std::vector<double> xs = { 1.0, 0.0 };
    EXPECT_THROW(geomean(xs), FatalError);
    const std::vector<double> neg = { 1.0, -2.0 };
    EXPECT_THROW(geomean(neg), FatalError);
}

TEST(Stats, GeomeanNeverExceedsMean)
{
    const std::vector<double> xs = { 1.0, 2.0, 9.0, 30.0 };
    EXPECT_LE(geomean(xs), mean(xs));
}

TEST(Stats, StddevOfConstantIsZero)
{
    const std::vector<double> xs = { 5.0, 5.0, 5.0 };
    EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(Stats, StddevOfKnownValues)
{
    const std::vector<double> xs = { 2.0, 4.0 };
    EXPECT_DOUBLE_EQ(stddev(xs), 1.0);
}

TEST(Stats, MinMax)
{
    const std::vector<double> xs = { 3.0, -1.0, 7.0 };
    EXPECT_DOUBLE_EQ(minOf(xs), -1.0);
    EXPECT_DOUBLE_EQ(maxOf(xs), 7.0);
    EXPECT_THROW(minOf({}), FatalError);
    EXPECT_THROW(maxOf({}), FatalError);
}

TEST(Stats, RelativeError)
{
    EXPECT_DOUBLE_EQ(relativeError(110.0, 100.0), 0.1);
    EXPECT_DOUBLE_EQ(relativeError(90.0, 100.0), 0.1);
    EXPECT_THROW(relativeError(1.0, 0.0), FatalError);
}

TEST(Stats, PercentileIsNearestRankOfTheSortedSample)
{
    // Unsorted on purpose; sorted it is 1 2 3 4 5 6 7 8 9 10.
    const std::vector<double> xs = { 7, 1, 10, 4, 2, 9, 3, 8, 6, 5 };
    EXPECT_EQ(percentile(xs, 0.0), 1.0);
    // Rank round(0.5 * 9) = round(4.5) = 5 (half rounds up).
    EXPECT_EQ(percentile(xs, 0.5), 6.0);
    // Rank round(0.95 * 9) = round(8.55) = 9.
    EXPECT_EQ(percentile(xs, 0.95), 10.0);
    EXPECT_EQ(percentile(xs, 1.0), 10.0);
    EXPECT_EQ(percentile(std::vector<double>{}, 0.5), 0.0);
    EXPECT_EQ(percentile(std::vector<std::int64_t>{}, 1.0), 0);
    const std::vector<std::int64_t> ns = { 30, 10, 20 };
    EXPECT_EQ(percentile(ns, 0.5), 20);
}

TEST(Stats, FitLinearRecoversExactLine)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 10; ++i) {
        xs.push_back(i);
        ys.push_back(3.0 * i + 2.0);
    }
    const LinearFit fit = fitLinear(xs, ys);
    EXPECT_NEAR(fit.slope, 3.0, 1e-9);
    EXPECT_NEAR(fit.bias, 2.0, 1e-9);
    EXPECT_NEAR(fit.r2, 1.0, 1e-9);
    EXPECT_NEAR(fit.eval(20.0), 62.0, 1e-9);
}

TEST(Stats, FitLinearNeedsDistinctX)
{
    const std::vector<double> xs = { 1.0, 1.0 };
    const std::vector<double> ys = { 1.0, 2.0 };
    EXPECT_THROW(fitLinear(xs, ys), FatalError);
}

TEST(Stats, FitLinearNeedsTwoPoints)
{
    const std::vector<double> xs = { 1.0 };
    const std::vector<double> ys = { 1.0 };
    EXPECT_THROW(fitLinear(xs, ys), FatalError);
}

TEST(Stats, FitProportionalRecoversSlope)
{
    const std::vector<double> xs = { 1.0, 2.0, 4.0 };
    const std::vector<double> ys = { 2.5, 5.0, 10.0 };
    const LinearFit fit = fitProportional(xs, ys);
    EXPECT_NEAR(fit.slope, 2.5, 1e-9);
    EXPECT_DOUBLE_EQ(fit.bias, 0.0);
    EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(Stats, FitProportionalRejectsAllZeroX)
{
    const std::vector<double> xs = { 0.0, 0.0 };
    const std::vector<double> ys = { 1.0, 2.0 };
    EXPECT_THROW(fitProportional(xs, ys), FatalError);
}

TEST(Stats, FitPowerRecoversPowerLaw)
{
    std::vector<double> xs, ys;
    for (double x = 1.0; x <= 64.0; x *= 2.0) {
        xs.push_back(x);
        ys.push_back(0.5 * std::pow(x, 1.75));
    }
    const PowerFit fit = fitPower(xs, ys);
    EXPECT_NEAR(fit.scale, 0.5, 1e-9);
    EXPECT_NEAR(fit.exponent, 1.75, 1e-9);
    EXPECT_NEAR(fit.eval(128.0), 0.5 * std::pow(128.0, 1.75), 1e-6);
}

TEST(Stats, FitPowerRejectsNonPositive)
{
    const std::vector<double> xs = { 1.0, -2.0 };
    const std::vector<double> ys = { 1.0, 2.0 };
    EXPECT_THROW(fitPower(xs, ys), FatalError);
}

TEST(Stats, ErrorAccumulatorGeomean)
{
    ErrorAccumulator acc;
    acc.add(110.0, 100.0); // 10%
    acc.add(140.0, 100.0); // 40%
    EXPECT_EQ(acc.count(), 2u);
    EXPECT_NEAR(acc.geomeanError(), 0.2, 1e-9);
    EXPECT_NEAR(acc.meanError(), 0.25, 1e-9);
    EXPECT_NEAR(acc.maxError(), 0.4, 1e-9);
}

TEST(Stats, ErrorAccumulatorHandlesPerfectPredictions)
{
    ErrorAccumulator acc;
    acc.add(100.0, 100.0);
    acc.add(100.0, 100.0);
    EXPECT_LT(acc.geomeanError(), 1e-9);
}

/** Property: the proportional fit minimizes squared error, so its
 *  residual is never worse than any other slope's. */
class FitProportionalProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(FitProportionalProperty, ResidualNoWorseThanPerturbedSlope)
{
    const double noise = GetParam();
    std::vector<double> xs, ys;
    for (int i = 1; i <= 12; ++i) {
        xs.push_back(i);
        // Deterministic "noise" around slope 4.
        ys.push_back(4.0 * i + noise * ((i % 3) - 1));
    }
    const LinearFit fit = fitProportional(xs, ys);

    auto residual = [&](double slope) {
        double ss = 0.0;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            const double r = ys[i] - slope * xs[i];
            ss += r * r;
        }
        return ss;
    };
    EXPECT_LE(residual(fit.slope), residual(fit.slope * 1.01) + 1e-9);
    EXPECT_LE(residual(fit.slope), residual(fit.slope * 0.99) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, FitProportionalProperty,
                         ::testing::Values(0.0, 0.5, 2.0, 10.0));

} // namespace
} // namespace twocs
