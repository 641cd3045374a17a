/**
 * @file
 * Cross-product property suite for ParallelPlan and its collective
 * lowering: parse/summary round-trips, validate() diagnostics,
 * totalDevices() over every axis, the ZeRO wire-volume identities,
 * pipeline boundary-send payloads, the 3D zoo ground-truth table,
 * and bit-identity of the plan-extended sweeps at --jobs 1/2/4.
 */

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/collectives.hh"
#include "core/sweep.hh"
#include "model/layer_graph.hh"
#include "model/parallel.hh"
#include "model/zoo.hh"
#include "profiling/profiler.hh"
#include "test_common.hh"
#include "util/logging.hh"

namespace twocs {
namespace {

/** The FatalError message a callable produces ("" if none). */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

// --- parse / summary ---

TEST(ParallelPlanParse, RoundTripsThroughSummary)
{
    for (const char *spec :
         { "tp=8,pp=4,micro=16,dp=2,zero=1,ep=8,sp=1,overlap=0",
           "tp=1,pp=1,micro=1,dp=64,zero=3,ep=1,sp=0,overlap=1",
           "tp=256,pp=1,micro=1,dp=1,zero=0,ep=1,sp=1,overlap=1" }) {
        const model::ParallelPlan plan = model::ParallelPlan::parse(spec);
        EXPECT_EQ(model::ParallelPlan::parse(plan.summary()), plan)
            << spec;
        EXPECT_EQ(plan.summary(), spec) << "canonical spelling";
    }
}

TEST(ParallelPlanParse, PipeliningDefaultsMicroToStageCount)
{
    const model::ParallelPlan plan =
        model::ParallelPlan::parse("tp=2,pp=4");
    EXPECT_EQ(plan.ppDegree, 4);
    EXPECT_EQ(plan.microBatches, 4);
    // An explicit micro-batch count is never overridden.
    EXPECT_EQ(model::ParallelPlan::parse("pp=4,micro=12").microBatches,
              12);
}

TEST(ParallelPlanParse, RejectsUnknownAndMalformedKeys)
{
    EXPECT_NE(fatalMessage([] {
                  model::ParallelPlan::parse("tp=8,bogus=1");
              }).find("accepted: tp, pp, micro, dp, zero, ep"),
              std::string::npos);
    EXPECT_NE(fatalMessage([] {
                  model::ParallelPlan::parse("tp=zero");
              }).find("positive integer"),
              std::string::npos);
    EXPECT_NE(fatalMessage([] {
                  model::ParallelPlan::parse("zero=4");
              }).find("[0, 3]"),
              std::string::npos);
}

// --- totalDevices / validate ---

TEST(ParallelPlanValidate, TotalDevicesMultipliesEveryAxis)
{
    model::ParallelPlan plan;
    plan.tpDegree = 8;
    plan.ppDegree = 4;
    plan.dpDegree = 2;
    plan.epDegree = 16;
    EXPECT_EQ(plan.totalDevices(), 8 * 4 * 2 * 16);
    // The historical bug: epDegree silently dropped from the product.
    plan.epDegree = 1;
    EXPECT_EQ(plan.totalDevices(), 8 * 4 * 2);
}

TEST(ParallelPlanValidate, DiagnosticsNameTheBrokenSplit)
{
    const model::Hyperparams bert = model::bertLarge(); // 24 layers
    model::ParallelPlan plan;
    plan.ppDegree = 7; // does not divide 24
    const std::string pp =
        fatalMessage([&] { plan.validate(bert); });
    EXPECT_NE(pp.find("not divisible by PP degree 7"),
              std::string::npos)
        << pp;
    EXPECT_NE(pp.find("ppDegree dividing 24"), std::string::npos)
        << pp;

    model::ParallelPlan zero;
    zero.zeroStage = 2; // sharding without a DP group
    EXPECT_NE(fatalMessage([&] { zero.validate(bert); })
                  .find("raise dpDegree or drop the ZeRO stage"),
              std::string::npos);

    model::ParallelPlan ep;
    ep.epDegree = 4; // BERT is dense
    EXPECT_NE(fatalMessage([&] { ep.validate(bert); })
                  .find("requires an MoE model"),
              std::string::npos);

    model::ParallelPlan micro;
    micro.microBatches = 8; // micro-batching without pipelining
    EXPECT_NE(fatalMessage([&] { micro.validate(bert); })
                  .find("without pipelining"),
              std::string::npos);
}

// --- collective lowering wire-volume identities ---

/** Per-device bytes-on-wire of the stream's DP-group collectives
 *  (the gradient exchange plus ZeRO-3 parameter gathers). */
Bytes
dpGroupWireBytes(const model::LayerGraphBuilder &graph)
{
    const comm::CollectiveModel coll =
        test::paperSystem().collectiveModel();
    Bytes total = 0.0;
    for (const model::TrainingOp &op : graph.iterationOps()) {
        if (op.overlappable() ||
            op.role == model::OpRole::ZeroParamAllGather) {
            total += coll
                         .cost(profiling::collectiveDescFor(
                             op, graph.parallel()))
                         .bytesOnWire;
        }
    }
    return total;
}

/** DP-group wire bytes at ZeRO `stage` over those of plain DP. */
double
zeroWireRatio(int stage, int dp)
{
    model::ParallelPlan base;
    base.dpDegree = dp;
    model::ParallelPlan sharded = base;
    sharded.zeroStage = stage;
    const Bytes ar = dpGroupWireBytes(
        model::LayerGraphBuilder(model::bertLarge(), base));
    EXPECT_GT(ar, 0.0);
    return dpGroupWireBytes(
               model::LayerGraphBuilder(model::bertLarge(), sharded)) /
           ar;
}

TEST(CollectiveLowering, ZeroTwoMovesExactlyTheAllReduceBytes)
{
    // ZeRO-2's reduce-scatter + all-gather is a refactoring of the
    // monolithic all-reduce, not extra traffic: per-device wire
    // volume is conserved at every DP degree. ZeRO-1 shards only the
    // optimizer state and keeps plain DP's all-reduce.
    for (int dp : { 2, 4, 8, 16 }) {
        EXPECT_NEAR(zeroWireRatio(2, dp), 1.0, 1e-9) << "dp=" << dp;
        EXPECT_DOUBLE_EQ(zeroWireRatio(1, dp), 1.0) << "dp=" << dp;
    }
}

TEST(CollectiveLowering, ZeroThreeParamGathersDoubleTheWire)
{
    // Stage 3 all-gathers the sharded parameters before the forward
    // and the backward use of each sub-layer; weights and gradients
    // share a precision, so the two gathers re-move the gradient
    // exchange's bytes exactly once more.
    for (int dp : { 2, 8 })
        EXPECT_NEAR(zeroWireRatio(3, dp), 2.0, 1e-9) << "dp=" << dp;
}

/** Property: the ZeRO wire ratios do not depend on the DP degree. */
class ZeroTrafficProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ZeroTrafficProperty, RatiosHoldAcrossDpDegrees)
{
    const int dp = GetParam();
    EXPECT_DOUBLE_EQ(zeroWireRatio(1, dp), 1.0);
    EXPECT_NEAR(zeroWireRatio(2, dp), 1.0, 1e-9);
    EXPECT_NEAR(zeroWireRatio(3, dp), 2.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(DpDegrees, ZeroTrafficProperty,
                         ::testing::Values(2, 4, 8, 32, 128));

TEST(CollectiveLowering, PipelineSendsMoveTheActivationTensor)
{
    model::ParallelPlan plan;
    plan.ppDegree = 4;
    plan.microBatches = 8;
    const model::LayerGraphBuilder graph(model::bertLarge(), plan);
    const model::Hyperparams &hp = graph.hyperparams();
    // One boundary send is a micro-batch's activation tensor:
    // precision * B * SL * H bytes (fp16 = 2 bytes/element).
    const Bytes expected = 2.0 * static_cast<double>(hp.batchSize) *
                           static_cast<double>(hp.sequenceLength) *
                           static_cast<double>(hp.hidden);
    EXPECT_DOUBLE_EQ(graph.ppBoundaryBytes(), expected);
    int sends = 0;
    for (const model::TrainingOp &op : graph.iterationOps()) {
        if (op.role == model::OpRole::PpSendFwd ||
            op.role == model::OpRole::PpSendBwd) {
            ++sends;
            EXPECT_DOUBLE_EQ(op.commBytes, expected);
            const comm::CollectiveDesc desc =
                profiling::collectiveDescFor(op, plan);
            EXPECT_EQ(desc.kind, comm::CollectiveKind::PointToPoint);
            EXPECT_EQ(desc.participants, 2);
        }
    }
    // One forward and one backward send per micro-batch.
    EXPECT_EQ(sends, 2 * plan.microBatches);
}

// --- the 3D zoo ground truth ---

TEST(ParallelZoo, TableMatchesThePublishedScaleDeployments)
{
    const std::vector<model::ParallelZooEntry> &zoo =
        model::parallelZoo();
    ASSERT_EQ(zoo.size(), 10u);

    // Every entry names a zoo model and validates against it.
    for (const model::ParallelZooEntry &e : zoo) {
        const model::Hyperparams hp = model::zooModel(e.model).hp;
        EXPECT_NO_THROW(e.plan.validate(
            hp.withCompatibleHeads(e.plan.tpDegree)))
            << e.model;
        EXPECT_GE(e.plan.totalDevices(), 1) << e.model;
    }

    // Spot-check the table's ground truth.
    const model::ParallelPlan gpt3 =
        model::parallelZooConfig("GPT-3").plan;
    EXPECT_EQ(gpt3.tpDegree, 8);
    EXPECT_EQ(gpt3.ppDegree, 8);
    EXPECT_EQ(gpt3.microBatches, 16);
    EXPECT_EQ(gpt3.dpDegree, 16);
    EXPECT_EQ(gpt3.zeroStage, 1);
    EXPECT_EQ(gpt3.totalDevices(), 8 * 8 * 16);

    const model::ParallelPlan moe =
        model::parallelZooConfig("GPT-4-class").plan;
    EXPECT_EQ(moe.epDegree, 16);
    EXPECT_GT(moe.totalDevices(), 8 * 12 * 8); // EP multiplies in

    const model::ParallelPlan frontier =
        model::parallelZooConfig("Frontier-2025").plan;
    EXPECT_EQ(frontier.zeroStage, 3);
    EXPECT_EQ(frontier.dpDegree, 64);

    EXPECT_EQ(model::parallelZooConfig("MT-NLG").plan.ppDegree, 35);

    EXPECT_NE(fatalMessage([] {
                  model::parallelZooConfig("NotAModel");
              }).find("unknown"),
              std::string::npos);
}

// --- sweep determinism across --jobs ---

TEST(ParallelSweeps, PlanExtendedStudyIsBitIdenticalAcrossJobs)
{
    static core::AmdahlAnalysis analysis(test::paperSystem());
    const std::vector<core::SerializedConfig> configs = {
        { 4096, 1024, 4 },  { 4096, 2048, 8 }, { 8192, 2048, 16 },
        { 16384, 2048, 64 }
    };
    core::SerializedStudyOptions options;
    options.basePlan =
        model::ParallelPlan::parse("pp=4,micro=8,dp=4,zero=2");

    std::vector<std::vector<core::AmdahlPoint>> runs;
    for (int jobs : { 1, 2, 4 }) {
        options.runner.jobs = jobs;
        runs.push_back(
            core::runSerializedStudy(analysis, configs, options));
    }
    for (std::size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), runs[0].size());
        for (std::size_t i = 0; i < runs[0].size(); ++i) {
            // Bit-identity, not tolerance: the runner's contract.
            EXPECT_EQ(runs[r][i].computeTime, runs[0][i].computeTime);
            EXPECT_EQ(runs[r][i].serializedCommTime,
                      runs[0][i].serializedCommTime);
            EXPECT_EQ(runs[r][i].plan, runs[0][i].plan);
        }
    }
}

TEST(ParallelSweeps, ZooStudyIsBitIdenticalAcrossJobs)
{
    std::vector<std::vector<core::ZooStudyPoint>> runs;
    for (int jobs : { 1, 2 }) {
        exec::RunnerOptions runner;
        runner.jobs = jobs;
        runs.push_back(
            core::runParallelZooStudy(test::paperSystem(), runner));
    }
    ASSERT_EQ(runs[0].size(), runs[1].size());
    ASSERT_EQ(runs[0].size(), model::parallelZoo().size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
        EXPECT_EQ(runs[0][i].model, runs[1][i].model);
        EXPECT_EQ(runs[0][i].computeTime, runs[1][i].computeTime);
        EXPECT_EQ(runs[0][i].serializedCommTime,
                  runs[1][i].serializedCommTime);
        EXPECT_EQ(runs[0][i].dpCommTime, runs[1][i].dpCommTime);
        EXPECT_GT(runs[0][i].computeTime, 0.0);
    }
}

} // namespace
} // namespace twocs
