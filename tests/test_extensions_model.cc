/**
 * @file
 * Tests for the Section 6 extensions at the model/analytic level:
 * Mixture-of-Experts layer graphs (6.1.1), pipeline parallelism
 * (6.1.2), ZeRO-style sharding (6.1.3) and the inference path (6.3).
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "analytic/pipeline.hh"
#include "hw/catalog.hh"
#include "model/layer_graph.hh"
#include "model/zoo.hh"
#include "test_common.hh"
#include "util/logging.hh"

namespace twocs {
namespace {

model::LayerGraphBuilder
moeGraph(int experts, int ep, int tp = 1, int dp = 1)
{
    model::ParallelPlan par;
    par.tpDegree = tp;
    par.dpDegree = dp;
    par.epDegree = ep;
    return model::LayerGraphBuilder(
        model::bertLarge().withMoe(experts).withCompatibleHeads(tp),
        par);
}

int
countRole(const std::vector<model::TrainingOp> &ops, model::OpRole role)
{
    return static_cast<int>(std::count_if(
        ops.begin(), ops.end(),
        [&](const model::TrainingOp &op) { return op.role == role; }));
}

// --- MoE (Section 6.1.1) ---

TEST(Moe, ConfigValidation)
{
    EXPECT_NO_THROW(model::bertLarge().withMoe(8, 2));
    EXPECT_THROW(model::bertLarge().withMoe(0), FatalError);
    EXPECT_THROW(model::bertLarge().withMoe(4, 8), FatalError);
    EXPECT_THROW(model::bertLarge().withMoe(4, 2, 0.5), FatalError);
}

TEST(Moe, EpDegreeRequiresMoeModel)
{
    model::ParallelPlan par;
    par.epDegree = 4;
    EXPECT_THROW(model::LayerGraphBuilder(model::bertLarge(), par),
                 FatalError);
    par.epDegree = 3; // 8 experts % 3 != 0
    EXPECT_THROW(
        model::LayerGraphBuilder(model::bertLarge().withMoe(8), par),
        FatalError);
}

TEST(Moe, TwoAllToAllsPerFcSubLayerForward)
{
    const auto g = moeGraph(8, 4);
    const auto fwd = g.forwardLayerOps(0);
    EXPECT_EQ(countRole(fwd, model::OpRole::EpAllToAll), 2);
    const auto bwd = g.backwardLayerOps(0);
    EXPECT_EQ(countRole(bwd, model::OpRole::EpAllToAll), 2);
}

TEST(Moe, NoAllToAllWithoutExpertParallelism)
{
    const auto g = moeGraph(8, 1);
    EXPECT_EQ(countRole(g.iterationOps(), model::OpRole::EpAllToAll), 0);
}

TEST(Moe, DenseModelHasNoRouterOrA2A)
{
    const auto g = test::bertGraph(1, 1);
    for (const auto &op : g.iterationOps()) {
        EXPECT_NE(op.role, model::OpRole::EpAllToAll);
        if (op.isCompute()) {
            EXPECT_NE(op.kernel.label, "router_fwd");
        }
    }
}

TEST(Moe, AllToAllBytesFollowTopKAndCapacity)
{
    const auto g = moeGraph(8, 4);
    const model::Hyperparams &hp = g.hyperparams();
    const double expect = 2.0 * hp.batchSize * hp.sequenceLength *
                          hp.hidden * hp.moe.topK *
                          hp.moe.capacityFactor;
    EXPECT_DOUBLE_EQ(g.epAllToAllBytes(), expect);
}

TEST(Moe, RoutedTokensScaleExpertGemms)
{
    // top-2 routing with capacity 1.25 -> each expert GEMM sees
    // 2.5x the dense token count on its M dimension.
    const auto dense = test::bertGraph(1, 1);
    const auto moe = moeGraph(8, 4);
    auto find_m = [](const model::LayerGraphBuilder &g,
                     const std::string &label) -> std::int64_t {
        for (const auto &op : g.forwardLayerOps(0)) {
            if (op.isCompute() && op.kernel.label == label)
                return op.kernel.gemm.m;
        }
        return -1;
    };
    EXPECT_EQ(find_m(moe, "fc1_fwd"),
              static_cast<std::int64_t>(find_m(dense, "fc1_fwd") * 2.5));
    // Attention sub-layer untouched.
    EXPECT_EQ(find_m(moe, "qkv_fwd"), find_m(dense, "qkv_fwd"));
}

TEST(Moe, ExpertWeightsMultiplyDpGradientTraffic)
{
    const auto dense = test::bertGraph(1, 4);
    const auto moe = moeGraph(8, 4, 1, 4);
    // 8 experts over EP=4 -> 2 expert FFNs per device.
    EXPECT_DOUBLE_EQ(moe.fcWeightGradBytes(),
                     2.0 * dense.fcWeightGradBytes());
}

TEST(Moe, AllToAllTimeCountsAsSerializedComm)
{
    const auto g = moeGraph(8, 4);
    const auto profile =
        test::paperSystem().profiler().profileLayer(g, 0);
    EXPECT_GT(profile.serializedCommTime(), 0.0);
    EXPECT_GT(profile.timeByRole(model::OpRole::EpAllToAll), 0.0);
}

TEST(Moe, MoeRaisesCommShareVsDense)
{
    // Section 6.1.1: less compute per token + extra serialized
    // exchanges -> communication share grows.
    const auto profiler = test::paperSystem().profiler();
    const auto dense_profile =
        profiler.profileLayer(test::bertGraph(4, 1), 0);
    model::ParallelPlan par;
    par.tpDegree = 4;
    par.epDegree = 8;
    const model::LayerGraphBuilder moe(
        model::bertLarge().withMoe(8).withCompatibleHeads(4), par);
    const auto moe_profile = profiler.profileLayer(moe, 0);

    const double dense_share =
        dense_profile.serializedCommTime() / dense_profile.totalTime();
    const double moe_share =
        moe_profile.serializedCommTime() / moe_profile.totalTime();
    EXPECT_GT(moe_share, dense_share);
}

// --- inference (Section 6.3) ---

TEST(Inference, ForwardOnlyStream)
{
    const auto g = test::bertGraph(4, 2);
    const auto ops = g.inferenceOps();
    for (const auto &op : ops) {
        EXPECT_NE(op.role, model::OpRole::BwdCompute);
        EXPECT_NE(op.role, model::OpRole::DpAllReduce);
        EXPECT_NE(op.role, model::OpRole::OptimizerStep);
        EXPECT_NE(op.role, model::OpRole::TpAllReduceBwd);
    }
    EXPECT_EQ(countRole(ops, model::OpRole::TpAllReduceFwd),
              2 * g.hyperparams().numLayers);
}

TEST(Inference, CommFractionStillSignificantUnderTp)
{
    // Distributed inference keeps the TP all-reduces on the critical
    // path (Section 6.3).
    const auto g = test::bertGraph(16, 1);
    const auto profile = test::paperSystem().profiler().profileOps(
        g.inferenceOps(), g.parallel());
    const double share =
        profile.serializedCommTime() / profile.totalTime();
    EXPECT_GT(share, 0.10);
    EXPECT_LT(share, 0.90);
}

// --- pipeline parallelism (Section 6.1.2) ---

TEST(Pipeline, BubbleFractionFormula)
{
    analytic::PipelineConfig cfg;
    cfg.stages = 4;
    cfg.microBatches = 12;
    const auto cost = analytic::pipelineCost(
        model::bertLarge(), cfg, hw::mi210().link);
    EXPECT_NEAR(cost.bubbleFraction, 3.0 / 15.0, 1e-12);
}

TEST(Pipeline, NoBubbleWithoutStages)
{
    analytic::PipelineConfig cfg;
    const auto cost = analytic::pipelineCost(
        model::bertLarge(), cfg, hw::mi210().link);
    EXPECT_DOUBLE_EQ(cost.bubbleFraction, 0.0);
    EXPECT_DOUBLE_EQ(cost.totalP2pTime, 0.0);
}

TEST(Pipeline, MoreMicroBatchesShrinkBubble)
{
    double prev = 1.0;
    for (int m : { 1, 2, 4, 8, 16, 64 }) {
        analytic::PipelineConfig cfg;
        cfg.stages = 8;
        cfg.microBatches = m;
        const auto cost = analytic::pipelineCost(
            model::bertLarge(), cfg, hw::mi210().link);
        EXPECT_LT(cost.bubbleFraction, prev);
        prev = cost.bubbleFraction;
    }
}

TEST(Pipeline, P2pBytesMatchBoundaryActivation)
{
    analytic::PipelineConfig cfg;
    cfg.stages = 2;
    cfg.microBatches = 4;
    const model::Hyperparams hp = model::bertLarge();
    const auto cost =
        analytic::pipelineCost(hp, cfg, hw::mi210().link);
    EXPECT_DOUBLE_EQ(cost.p2pBytesPerBoundary,
                     2.0 * hp.batchSize * hp.sequenceLength *
                         hp.hidden);
    EXPECT_GT(cost.totalP2pTime, 0.0);
}

TEST(Pipeline, IterationTimeAccountsBubbleAndHops)
{
    analytic::PipelineConfig cfg;
    cfg.stages = 4;
    cfg.microBatches = 4;
    const Seconds t =
        analytic::pipelineIterationTime(10e-3, cfg, 1e-3);
    // 7 slots of (10 + 2) ms.
    EXPECT_NEAR(t, 7.0 * 12e-3, 1e-12);
    EXPECT_THROW(analytic::pipelineIterationTime(0.0, cfg, 1e-3),
                 FatalError);
}

} // namespace
} // namespace twocs
