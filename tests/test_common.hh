/**
 * @file
 * Shared helpers for the twocs test suite.
 */

#ifndef TWOCS_TESTS_TEST_COMMON_HH
#define TWOCS_TESTS_TEST_COMMON_HH

#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster_sim.hh"
#include "core/system_config.hh"
#include "model/layer_graph.hh"
#include "model/zoo.hh"
#include "util/rng.hh"

namespace twocs::test {

/** The paper's measurement system (MI210 node, no evolution). */
inline core::SystemConfig
paperSystem()
{
    return core::SystemConfig{};
}

/** A BERT-Large layer graph at the given parallel degrees. */
inline model::LayerGraphBuilder
bertGraph(int tp = 1, int dp = 1)
{
    model::ParallelPlan par;
    par.tpDegree = tp;
    par.dpDegree = dp;
    return model::LayerGraphBuilder(model::bertLarge(), par);
}

/**
 * The Monte Carlo oracle: one from-scratch ClusterSim::run() per
 * trial, seeded with splitmixSeed(config.seed, i) and aggregated in
 * trial order — what runTrials() must reproduce bit for bit.
 */
inline core::ClusterTrialSummary
perTrialRuns(const core::ClusterSim &sim,
             const core::ClusterSimConfig &config, int num_trials)
{
    core::ClusterTrialSummary summary;
    for (int i = 0; i < num_trials; ++i) {
        core::ClusterSimConfig trial = config;
        trial.seed =
            splitmixSeed(config.seed, static_cast<std::uint64_t>(i));
        summary.trials.push_back(sim.run(trial));
        summary.meanIterationTime +=
            summary.trials.back().iterationTime;
        summary.worstIterationTime =
            std::max(summary.worstIterationTime,
                     summary.trials.back().iterationTime);
    }
    summary.meanIterationTime /= static_cast<double>(num_trials);
    return summary;
}

/** EXPECT that `value` lies within [lo, hi]. */
#define EXPECT_IN_RANGE(value, lo, hi)                                    \
    do {                                                                  \
        const double v_ = (value);                                        \
        EXPECT_GE(v_, (lo));                                              \
        EXPECT_LE(v_, (hi));                                              \
    } while (0)

} // namespace twocs::test

#endif // TWOCS_TESTS_TEST_COMMON_HH
