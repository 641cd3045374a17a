#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "model/layer_graph.hh"
#include "model/zoo.hh"
#include "util/logging.hh"

namespace twocs::model {
namespace {

LayerGraphBuilder
graph(int tp, int dp, bool optimizer = true, bool fused = true)
{
    ParallelPlan par;
    par.tpDegree = tp;
    par.dpDegree = dp;
    return LayerGraphBuilder(bertLarge().withCompatibleHeads(tp), par,
                             hw::Precision::FP16, optimizer, fused);
}

int
countRole(const std::vector<TrainingOp> &ops, OpRole role)
{
    return static_cast<int>(
        std::count_if(ops.begin(), ops.end(),
                      [&](const TrainingOp &op) { return op.role == role; }));
}

double
gemmFlops(const std::vector<TrainingOp> &ops, OpRole role)
{
    double f = 0.0;
    for (const TrainingOp &op : ops) {
        if (op.role == role && op.kernel.kind == hw::KernelKind::Gemm)
            f += op.kernel.flops();
    }
    return f;
}

TEST(LayerGraph, FourSerializedAllReducesPerLayer)
{
    // Section 3.3: four serialized all-reduces per layer under TP
    // (two forward, two backward).
    const LayerGraphBuilder g = graph(8, 1);
    const auto fwd = g.forwardLayerOps(0);
    const auto bwd = g.backwardLayerOps(0);
    EXPECT_EQ(countRole(fwd, OpRole::TpAllReduceFwd), 2);
    EXPECT_EQ(countRole(bwd, OpRole::TpAllReduceBwd), 2);
    EXPECT_EQ(LayerGraphBuilder::tpAllReducesPerLayer, 4);
}

TEST(LayerGraph, NoTpAllReducesWithoutTp)
{
    const LayerGraphBuilder g = graph(1, 1);
    const auto ops = g.iterationOps();
    EXPECT_EQ(countRole(ops, OpRole::TpAllReduceFwd), 0);
    EXPECT_EQ(countRole(ops, OpRole::TpAllReduceBwd), 0);
}

TEST(LayerGraph, DpAllReducePerSubLayer)
{
    const LayerGraphBuilder g = graph(1, 4);
    const auto bwd = g.backwardLayerOps(0);
    EXPECT_EQ(countRole(bwd, OpRole::DpAllReduce), 2);
    // No DP all-reduce without data parallelism.
    EXPECT_EQ(countRole(graph(1, 1).backwardLayerOps(0),
                        OpRole::DpAllReduce),
              0);
}

TEST(LayerGraph, TpAllReduceBytesMatchesEquationFive)
{
    const LayerGraphBuilder g = graph(8, 1);
    const Hyperparams &hp = g.hyperparams();
    // Eq. 5: (precision/8) * H * SL * B bytes.
    const double expect = 2.0 * hp.hidden * hp.sequenceLength *
                          hp.batchSize;
    EXPECT_DOUBLE_EQ(g.tpAllReduceBytes(), expect);
    for (const TrainingOp &op : g.forwardLayerOps(0)) {
        if (op.role == OpRole::TpAllReduceFwd) {
            EXPECT_DOUBLE_EQ(op.commBytes, expect);
        }
    }
}

TEST(LayerGraph, DpGradientBytesMatchEquationEight)
{
    const LayerGraphBuilder g = graph(8, 4);
    const Hyperparams &hp = g.hyperparams();
    const double h = static_cast<double>(hp.hidden);
    // FC sub-layer: 2 * H * fc / TP parameters at 2 bytes.
    EXPECT_DOUBLE_EQ(g.fcWeightGradBytes(),
                     2.0 * 2.0 * h * hp.fcDim / 8.0);
    // Attention sub-layer: 4 H^2 / TP parameters.
    EXPECT_DOUBLE_EQ(g.attnWeightGradBytes(), 2.0 * 4.0 * h * h / 8.0);
    EXPECT_DOUBLE_EQ(g.layerWeightGradBytes(),
                     g.fcWeightGradBytes() + g.attnWeightGradBytes());
}

TEST(LayerGraph, BackwardGemmFlopsAreTwiceForward)
{
    // Every forward GEMM spawns an IG and a WG GEMM of equal size.
    const LayerGraphBuilder g = graph(4, 1);
    const double fwd = gemmFlops(g.forwardLayerOps(0),
                                 OpRole::FwdCompute);
    const double bwd = gemmFlops(g.backwardLayerOps(0),
                                 OpRole::BwdCompute);
    EXPECT_NEAR(bwd / fwd, 2.0, 1e-9);
}

TEST(LayerGraph, TpSlicesGemmFlops)
{
    const double f1 = gemmFlops(graph(1, 1).forwardLayerOps(0),
                                OpRole::FwdCompute);
    const double f8 = gemmFlops(graph(8, 1).forwardLayerOps(0),
                                OpRole::FwdCompute);
    EXPECT_NEAR(f1 / f8, 8.0, 1e-9);
}

TEST(LayerGraph, FusionRemovesElementwiseKernels)
{
    const auto fused = graph(1, 1, true, true).forwardLayerOps(0);
    const auto unfused = graph(1, 1, true, false).forwardLayerOps(0);
    auto has_kind = [](const std::vector<TrainingOp> &ops,
                       hw::KernelKind kind) {
        return std::any_of(ops.begin(), ops.end(),
                           [&](const TrainingOp &op) {
                               return op.isCompute() &&
                                      op.kernel.kind == kind;
                           });
    };
    EXPECT_FALSE(has_kind(fused, hw::KernelKind::Gelu));
    EXPECT_FALSE(has_kind(fused, hw::KernelKind::Dropout));
    EXPECT_FALSE(has_kind(fused, hw::KernelKind::Residual));
    EXPECT_TRUE(has_kind(unfused, hw::KernelKind::Gelu));
    EXPECT_TRUE(has_kind(unfused, hw::KernelKind::Dropout));
    EXPECT_TRUE(has_kind(unfused, hw::KernelKind::Residual));
    // LayerNorm and softmax survive fusion in both.
    EXPECT_TRUE(has_kind(fused, hw::KernelKind::LayerNorm));
    EXPECT_TRUE(has_kind(fused, hw::KernelKind::Softmax));
}

TEST(LayerGraph, OptimizerFlagControlsOptimizerStep)
{
    EXPECT_EQ(countRole(graph(1, 1, true).backwardLayerOps(0),
                        OpRole::OptimizerStep),
              1);
    EXPECT_EQ(countRole(graph(1, 1, false).backwardLayerOps(0),
                        OpRole::OptimizerStep),
              0);
}

TEST(LayerGraph, IterationCoversAllLayers)
{
    const LayerGraphBuilder g = graph(2, 2);
    const auto ops = g.iterationOps();
    const int layers = g.hyperparams().numLayers;
    std::map<int, int> fwd_per_layer;
    for (const TrainingOp &op : ops) {
        if (op.role == OpRole::FwdCompute)
            ++fwd_per_layer[op.layerIndex];
    }
    EXPECT_EQ(static_cast<int>(fwd_per_layer.size()), layers);
    // Backward pass visits layers in reverse: the last backward op
    // belongs to layer 0.
    EXPECT_EQ(ops.back().layerIndex, 0);
}

TEST(LayerGraph, LabelsAreUniqueWithinLayer)
{
    const LayerGraphBuilder g = graph(4, 4);
    std::map<std::string, int> seen;
    auto ops = g.forwardLayerOps(0);
    auto bwd = g.backwardLayerOps(0);
    ops.insert(ops.end(), bwd.begin(), bwd.end());
    for (const TrainingOp &op : ops) {
        if (op.isCompute()) {
            EXPECT_EQ(seen[op.kernel.label]++, 0) << op.kernel.label;
        }
    }
}

TEST(LayerGraph, GemmShapesRespectSlicing)
{
    const LayerGraphBuilder g = graph(8, 1);
    for (const TrainingOp &op : g.forwardLayerOps(0)) {
        if (op.kernel.label == "qkv_fwd") {
            EXPECT_EQ(op.kernel.gemm.m, 4 * 512);   // B * SL
            EXPECT_EQ(op.kernel.gemm.n, 3 * 1024 / 8);
            EXPECT_EQ(op.kernel.gemm.k, 1024);
        }
        if (op.kernel.label == "fc2_fwd") {
            EXPECT_EQ(op.kernel.gemm.n, 1024);      // full H out
            EXPECT_EQ(op.kernel.gemm.k, 4096 / 8);  // sliced fc
        }
    }
}

TEST(LayerGraph, ParallelValidation)
{
    ParallelPlan par;
    par.tpDegree = 3; // 1024 % 3 != 0
    EXPECT_THROW(LayerGraphBuilder(bertLarge(), par), FatalError);
    par.tpDegree = 0;
    EXPECT_THROW(LayerGraphBuilder(bertLarge(), par), FatalError);
}

TEST(LayerGraph, OpRoleHelpers)
{
    const LayerGraphBuilder g = graph(8, 4);
    for (const TrainingOp &op : g.iterationOps()) {
        EXPECT_NE(op.isComm(), op.isCompute());
        if (op.overlappable()) {
            EXPECT_EQ(op.role, OpRole::DpAllReduce);
        }
    }
    EXPECT_EQ(opRoleName(OpRole::DpAllReduce), "dp_allreduce");
    EXPECT_EQ(subLayerName(SubLayer::Attention), "attention");
}

/** Property: total iteration GEMM flops scale linearly in batch and
 *  the serialized comm bytes scale linearly in B * SL * H (Eq. 5). */
class ScalingProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ScalingProperty, FlopsLinearInBatch)
{
    const int b = GetParam();
    ParallelPlan par;
    par.tpDegree = 4;
    const LayerGraphBuilder g1(bertLarge().withBatchSize(1), par);
    const LayerGraphBuilder gb(bertLarge().withBatchSize(b), par);
    const double f1 = gemmFlops(g1.forwardLayerOps(0),
                                OpRole::FwdCompute);
    const double fb = gemmFlops(gb.forwardLayerOps(0),
                                OpRole::FwdCompute);
    EXPECT_NEAR(fb / f1, b, 1e-9);
    EXPECT_NEAR(gb.tpAllReduceBytes() / g1.tpAllReduceBytes(), b, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Batches, ScalingProperty,
                         ::testing::Values(2, 4, 8, 16));

} // namespace
} // namespace twocs::model
