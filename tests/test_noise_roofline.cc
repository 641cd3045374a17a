/**
 * @file
 * Tests for the PRNG, the measurement-noise model, and the roofline
 * characterization tooling.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "hw/catalog.hh"
#include "opmodel/operator_model.hh"
#include "profiling/noise.hh"
#include "profiling/roofline.hh"
#include "test_common.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace twocs {
namespace {

// --- Rng ---

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.nextU64() == b.nextU64() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, DoublesInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMomentsRoughlyStandard)
{
    Rng rng(13);
    std::vector<double> xs(20000);
    for (double &x : xs)
        x = rng.nextGaussian();
    EXPECT_NEAR(mean(xs), 0.0, 0.03);
    EXPECT_NEAR(stddev(xs), 1.0, 0.03);
}

/** Phi, the standard normal CDF. */
double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

TEST(Rng, GaussianPassesKolmogorovSmirnov)
{
    // One-sample KS against Phi; 1.63 / sqrt(N) is the 1% critical
    // value of the KS statistic for large N.
    constexpr int n = 1000000;
    Rng rng(1);
    std::vector<double> xs(n);
    for (double &x : xs)
        x = rng.nextGaussian();
    std::sort(xs.begin(), xs.end());
    double d = 0.0;
    for (int i = 0; i < n; ++i) {
        const double f = normalCdf(xs[i]);
        d = std::max({ d, f - static_cast<double>(i) / n,
                       static_cast<double>(i + 1) / n - f });
    }
    EXPECT_LT(d, 1.63 / std::sqrt(static_cast<double>(n)));
}

TEST(Rng, GaussianTailMassMatchesNormal)
{
    // Draws beyond the Ziggurat's base-strip edge r come only from
    // the tail sampler, so a broken tail shows here while the KS
    // test above, dominated by the body, barely moves. 2 (1 - Phi(r))
    // is about 5.8e-4, ~576 of the 10^6 draws. The second threshold
    // checks the tail's shape, not just its mass.
    constexpr int n = 1000000;
    constexpr double r = 3.442619855899;
    const double thresholds[] = { r, r + 0.5 };
    Rng rng(1);
    int beyond[2] = { 0, 0 };
    for (int i = 0; i < n; ++i) {
        const double x = std::fabs(rng.nextGaussian());
        for (int t = 0; t < 2; ++t)
            beyond[t] += x > thresholds[t] ? 1 : 0;
    }
    for (int t = 0; t < 2; ++t) {
        const double p = 2.0 * (1.0 - normalCdf(thresholds[t]));
        const double sigma = std::sqrt(n * p * (1.0 - p));
        EXPECT_NEAR(beyond[t], n * p, 4.0 * sigma)
            << "|Z| > " << thresholds[t];
    }
}

TEST(Rng, GaussianStreamIsPinned)
{
    // The first draws of the one normal sampler, bit for bit: a
    // change to the stream (and so to every jittered Monte Carlo
    // table) must show up as a diff here.
    const double gaussians[8] = {
        -0x1.bdd324fe45ebp-1,  -0x1.c97dd0e084e96p-1,
        -0x1.f21a9d480b3e4p+0, 0x1.7cfbe30a9c62bp+0,
        -0x1.d3c1f9eba650bp-2, 0x1.2443ef9965332p-1,
        0x1.22abb2b4e81bcp-3,  0x1.966cf1bbd6cbp+0,
    };
    const double factors[8] = {
        0x1.e996b9458afdep-1, 0x1.e90818dc15f95p-1,
        0x1.cffc03042c1f5p-1, 0x1.136b41f76f99p+0,
        0x1.f3d24320109cbp-1, 0x1.07141d1fd3081p+0,
        0x1.01801610a8cf4p+0, 0x1.14ca43e56e11bp+0,
    };
    Rng normal(1), noise(1);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(normal.nextGaussian(), gaussians[i]) << "draw " << i;
        EXPECT_EQ(noise.noiseFactor(0.05), factors[i]) << "draw " << i;
    }
}

TEST(Rng, NoiseFactorHasUnitMean)
{
    Rng rng(99);
    std::vector<double> xs(20000);
    for (double &x : xs)
        x = rng.noiseFactor(0.10);
    EXPECT_NEAR(mean(xs), 1.0, 0.01);
    EXPECT_NEAR(stddev(xs), 0.10, 0.01);
    EXPECT_DOUBLE_EQ(rng.noiseFactor(0.0), 1.0);
    EXPECT_THROW(rng.noiseFactor(-0.1), FatalError);
}

// --- NoiseModel ---

TEST(Noise, PerturbKeepsStructure)
{
    const auto profile =
        test::paperSystem().profiler().profileLayer(test::bertGraph(4, 2),
                                                    0);
    profiling::NoiseModel noise(0.05, 1);
    const auto noisy = noise.perturb(profile);
    ASSERT_EQ(noisy.size(), profile.size());
    for (std::size_t i = 0; i < noisy.size(); ++i) {
        EXPECT_EQ(noisy.records()[i].label, profile.records()[i].label);
        EXPECT_GT(noisy.records()[i].duration, 0.0);
        EXPECT_NE(noisy.records()[i].duration,
                  profile.records()[i].duration);
    }
}

TEST(Noise, SameSeedSameNoise)
{
    const auto profile =
        test::paperSystem().profiler().profileLayer(test::bertGraph(1),
                                                    0);
    profiling::NoiseModel a(0.05, 77), b(0.05, 77);
    const auto na = a.perturb(profile);
    const auto nb = b.perturb(profile);
    for (std::size_t i = 0; i < na.size(); ++i) {
        EXPECT_DOUBLE_EQ(na.records()[i].duration,
                         nb.records()[i].duration);
    }
}

TEST(Noise, AveragingConvergesTowardTruth)
{
    const auto profile =
        test::paperSystem().profiler().profileLayer(test::bertGraph(1),
                                                    0);
    profiling::NoiseModel one(0.10, 5);
    profiling::NoiseModel many(0.10, 5);
    const double err1 = relativeError(
        one.perturb(profile).totalTime(), profile.totalTime());
    const double err64 = relativeError(
        many.averageOfRuns(profile, 64).totalTime(),
        profile.totalTime());
    EXPECT_LT(err64, 0.02);
    EXPECT_LE(err64, err1 + 0.02);
}

TEST(Noise, CalibrationDegradesGracefullyUnderNoise)
{
    // The paper calibrates from real (noisy) measurements; a few
    // percent of timing jitter must not blow up the projection.
    const auto profiler = test::paperSystem().profiler();
    const auto baseline = test::bertGraph(1);
    const auto clean =
        opmodel::OperatorScalingModel::calibrate(profiler, baseline);

    // Perturb the calibrated baselines directly (5% measurement
    // noise on each operator's profiled duration).
    Rng rng(3);
    std::map<std::string, opmodel::BaselinePoint> noisy_points;
    for (const auto &[label, p] : clean.computeBaselines()) {
        noisy_points[label] = { p.duration * rng.noiseFactor(0.05),
                                p.predictor };
    }
    const auto noisy = opmodel::OperatorScalingModel::fromBaselines(
        noisy_points, clean.allReduceBaseline(),
        clean.allToAllBaseline());

    const auto target = test::bertGraph(8, 1);
    const auto pb_clean = clean.projectIteration(target);
    const auto pb_noisy = noisy.projectIteration(target);
    EXPECT_NEAR(pb_noisy.criticalPathTime() /
                    pb_clean.criticalPathTime(),
                1.0, 0.05);
}

// --- roofline ---

TEST(Roofline, RidgePointOfMi210)
{
    // 181 TFLOP/s over 1.6 TB/s ~ 113 FLOP/byte at FP16.
    EXPECT_NEAR(profiling::ridgePoint(hw::mi210(), hw::Precision::FP16), 113.1,
                0.5);
}

TEST(Roofline, GemmsAreComputeBoundElementwiseMemoryBound)
{
    const auto profile =
        test::paperSystem().profiler().profileLayer(test::bertGraph(1),
                                                    0);
    const auto summary = profiling::rooflineSummary(
        hw::mi210(), profile, hw::Precision::FP16);
    for (const auto &p : summary.points) {
        if (p.label.find("ln") == 0 || p.label == "softmax_fwd") {
            EXPECT_FALSE(p.computeBound) << p.label;
        }
        if (p.label == "fc1_fwd" || p.label == "qkv_fwd") {
            EXPECT_TRUE(p.computeBound) << p.label;
        }
        EXPECT_GT(p.ceilingFraction, 0.0);
        EXPECT_LE(p.ceilingFraction, 1.0);
    }
}

TEST(Roofline, LargeTransformerLayerIsMostlyComputeBound)
{
    // The Gshard-style observation the paper leans on (Section
    // 4.2.3): key Transformer operations of large models run compute
    // bound at high utilization.
    model::ParallelPlan par;
    par.tpDegree = 8;
    const model::LayerGraphBuilder g(
        model::bertLarge().withHidden(12288).withSequenceLength(2048),
        par);
    const auto profile =
        test::paperSystem().profiler().profileLayer(g, 0);
    const auto summary = profiling::rooflineSummary(
        hw::mi210(), profile, hw::Precision::FP16);
    EXPECT_GT(summary.computeBoundTimeShare, 0.80);
    EXPECT_GT(summary.meanCeilingFraction, 0.6);
}

TEST(Roofline, RejectsCommRecords)
{
    profiling::ProfileRecord rec;
    rec.label = "tp_allreduce_fwd";
    rec.role = model::OpRole::TpAllReduceFwd;
    rec.duration = 1e-3;
    rec.bytes = 1e6;
    EXPECT_THROW(
        profiling::rooflinePoint(hw::mi210(), rec,
                                 hw::Precision::FP16),
        FatalError);
}

} // namespace
} // namespace twocs
