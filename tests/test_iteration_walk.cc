/**
 * @file
 * The periodic-iteration walk against the materialised op stream.
 *
 * iterationOps(), IterationProfiler::iterationTotals() and
 * OperatorScalingModel::projectIteration() all follow one
 * IterationShape; LayoutPlanner::enumerate() shares one layer
 * profile across pipeline depths. Each test checks one of them bit
 * for bit (EXPECT_EQ on doubles) against an oracle kept here: the
 * per-layer emission, the fold over profiled records, the per-op
 * projection fold and the un-hoisted evaluate().
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/planner.hh"
#include "opmodel/operator_model.hh"
#include "profiling/profiler.hh"
#include "profiling/roi.hh"
#include "test_common.hh"

namespace twocs {
namespace {

using model::OpRole;

/** One named graph configuration. */
struct Case
{
    std::string name;
    model::LayerGraphBuilder graph;
};

model::ParallelPlan
plan(int tp, int pp, int micro, int dp, int zero = 0, int ep = 1,
     bool sp = false)
{
    model::ParallelPlan p;
    p.tpDegree = tp;
    p.ppDegree = pp;
    p.microBatches = micro;
    p.dpDegree = dp;
    p.zeroStage = zero;
    p.epDegree = ep;
    p.sequenceParallel = sp;
    return p;
}

/** Every parallelZoo() plan plus a matrix of the plan features the
 *  shape has to reproduce: pipelining with micro-batches, ZeRO 2/3,
 *  expert and sequence parallelism, recompute, no optimizer, unfused
 *  element-wise kernels. */
std::vector<Case>
cases()
{
    std::vector<Case> out;
    for (const model::ParallelZooEntry &e : model::parallelZoo()) {
        out.push_back({ "zoo " + e.model,
                        model::LayerGraphBuilder(
                            model::zooModel(e.model).hp, e.plan) });
    }
    const model::Hyperparams bert = model::bertLarge();
    const model::Hyperparams moe = model::zooModel("GPT-4-class").hp;
    const hw::Precision fp16 = hw::Precision::FP16;
    auto add = [&](const std::string &name, const model::Hyperparams &hp,
                   model::ParallelPlan p, bool optimizer = true,
                   bool fuse = true, bool recompute = false) {
        out.push_back({ name, model::LayerGraphBuilder(hp, p, fp16,
                                                       optimizer, fuse,
                                                       recompute) });
    };
    add("single device", bert, plan(1, 1, 1, 1));
    add("pp4 micro8 tp2 dp2", bert, plan(2, 4, 8, 2));
    add("pp2 micro1", bert, plan(1, 2, 1, 1));
    add("zero2 dp4", bert, plan(2, 1, 1, 4, 2));
    add("zero3 dp8 pp2", bert, plan(4, 2, 4, 8, 3));
    add("ep4 tp2 dp2", moe, plan(2, 2, 4, 2, 1, 4));
    add("sp tp4 dp2", bert, plan(4, 1, 1, 2, 0, 1, true));
    add("recompute pp2", bert, plan(2, 2, 4, 4), true, true, true);
    add("no optimizer", bert, plan(2, 2, 2, 2), false);
    add("unfused", bert, plan(2, 1, 1, 2), true, false);
    add("unfused recompute zero3", bert, plan(2, 2, 3, 4, 3), true,
        false, true);
    return out;
}

/** The stream as iterationOps() emitted it one layer at a time. */
std::vector<model::TrainingOp>
perLayerStream(const model::LayerGraphBuilder &g)
{
    const model::ParallelPlan &par = g.parallel();
    const int layers = par.stageLayers(g.hyperparams());
    auto send = [&](OpRole role, model::SubLayer sub, int layer) {
        model::TrainingOp op;
        op.role = role;
        op.subLayer = sub;
        op.layerIndex = layer;
        op.kernel.label = model::opRoleName(role);
        op.commBytes = g.ppBoundaryBytes();
        return op;
    };
    std::vector<model::TrainingOp> ops;
    for (int micro = 0; micro < par.microBatches; ++micro) {
        for (int l = 0; l < layers; ++l) {
            for (const model::TrainingOp &op : g.forwardLayerOps(l))
                ops.push_back(op);
        }
        if (par.ppDegree > 1) {
            ops.push_back(send(OpRole::PpSendFwd,
                               model::SubLayer::FeedForward, layers - 1));
        }
    }
    for (int micro = 0; micro < par.microBatches; ++micro) {
        const bool final_micro = micro == par.microBatches - 1;
        for (int l = layers - 1; l >= 0; --l) {
            for (const model::TrainingOp &op :
                 g.backwardLayerOps(l, final_micro))
                ops.push_back(op);
        }
        if (par.ppDegree > 1) {
            ops.push_back(
                send(OpRole::PpSendBwd, model::SubLayer::Attention, 0));
        }
    }
    return ops;
}

TEST(IterationWalk, IterationOpsMatchPerLayerEmission)
{
    for (const Case &c : cases()) {
        SCOPED_TRACE(c.name);
        const std::vector<model::TrainingOp> got = c.graph.iterationOps();
        const std::vector<model::TrainingOp> want =
            perLayerStream(c.graph);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(c.graph.iterationShape().opCount(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            const model::TrainingOp &a = got[i];
            const model::TrainingOp &b = want[i];
            SCOPED_TRACE(i);
            EXPECT_EQ(a.role, b.role);
            EXPECT_EQ(a.subLayer, b.subLayer);
            EXPECT_EQ(a.layerIndex, b.layerIndex);
            EXPECT_EQ(a.kernel.kind, b.kernel.kind);
            EXPECT_EQ(a.kernel.label, b.kernel.label);
            EXPECT_EQ(a.kernel.precision, b.kernel.precision);
            EXPECT_EQ(a.kernel.gemm, b.kernel.gemm);
            EXPECT_EQ(a.kernel.elems, b.kernel.elems);
            EXPECT_EQ(a.commBytes, b.commBytes);
        }
    }
}

/** Sum of record durations with the given role, in record order. */
Seconds
roleSum(const profiling::Profile &p, OpRole role)
{
    Seconds t = 0.0;
    for (const profiling::ProfileRecord &r : p.records()) {
        if (r.role == role)
            t += r.duration;
    }
    return t;
}

TEST(IterationWalk, TotalsMatchRecordFold)
{
    const profiling::IterationProfiler profiler =
        test::paperSystem().profiler();
    for (const Case &c : cases()) {
        SCOPED_TRACE(c.name);
        const profiling::Profile prof =
            profiler.profileIteration(c.graph);
        const profiling::RoleTotals totals =
            profiler.iterationTotals(c.graph);

        Seconds total = 0.0;
        for (const profiling::ProfileRecord &r : prof.records())
            total += r.duration;
        EXPECT_EQ(totals.total, total);
        for (std::size_t i = 0; i < model::numOpRoles; ++i) {
            const OpRole role = static_cast<OpRole>(i);
            SCOPED_TRACE(model::opRoleName(role));
            EXPECT_EQ(totals.time(role), roleSum(prof, role));
        }
        EXPECT_EQ(totals.computeTime(),
                  roleSum(prof, OpRole::FwdCompute) +
                      roleSum(prof, OpRole::BwdCompute) +
                      roleSum(prof, OpRole::OptimizerStep));
        EXPECT_EQ(totals.serializedCommTime(),
                  roleSum(prof, OpRole::TpAllReduceFwd) +
                      roleSum(prof, OpRole::TpAllReduceBwd) +
                      roleSum(prof, OpRole::EpAllToAll) +
                      roleSum(prof, OpRole::PpSendFwd) +
                      roleSum(prof, OpRole::PpSendBwd) +
                      roleSum(prof, OpRole::ZeroParamAllGather));
        EXPECT_EQ(totals.dpCommTime(),
                  roleSum(prof, OpRole::DpAllReduce) +
                      roleSum(prof, OpRole::DpReduceScatter) +
                      roleSum(prof, OpRole::DpAllGather));
        // The Profile's own group sums go through the same type.
        EXPECT_EQ(prof.totalTime(), totals.total);
        EXPECT_EQ(prof.computeTime(), totals.computeTime());
        EXPECT_EQ(prof.serializedCommTime(), totals.serializedCommTime());
        EXPECT_EQ(prof.dpCommTime(), totals.dpCommTime());
    }
}

TEST(IterationWalk, ProjectionMatchesPerOpFold)
{
    const core::SystemConfig sys = test::paperSystem();
    const opmodel::OperatorScalingModel m =
        opmodel::OperatorScalingModel::calibrate(sys.profiler(),
                                                 test::bertGraph());
    // The calibration layer is unfused, recompute-free BERT, so only
    // project the dense cases whose labels it carries.
    for (const Case &c : cases()) {
        if (c.graph.hyperparams().moe.enabled() ||
            c.name.find("unfused") != std::string::npos ||
            c.name.find("recompute") != std::string::npos)
            continue;
        SCOPED_TRACE(c.name);
        opmodel::ProjectedBreakdown want;
        for (const model::TrainingOp &op : c.graph.iterationOps()) {
            const Seconds t = m.projectOp(op);
            switch (op.role) {
              case OpRole::FwdCompute:
                want.fwdCompute += t;
                break;
              case OpRole::BwdCompute:
                want.bwdCompute += t;
                break;
              case OpRole::OptimizerStep:
                want.optimizer += t;
                break;
              case OpRole::TpAllReduceFwd:
              case OpRole::TpAllReduceBwd:
              case OpRole::EpAllToAll:
              case OpRole::PpSendFwd:
              case OpRole::PpSendBwd:
              case OpRole::ZeroParamAllGather:
                want.serializedComm += t;
                break;
              case OpRole::DpAllReduce:
              case OpRole::DpReduceScatter:
              case OpRole::DpAllGather:
                want.dpComm += t;
                break;
            }
        }
        const opmodel::ProjectedBreakdown got =
            m.projectIteration(c.graph);
        EXPECT_EQ(got.fwdCompute, want.fwdCompute);
        EXPECT_EQ(got.bwdCompute, want.bwdCompute);
        EXPECT_EQ(got.optimizer, want.optimizer);
        EXPECT_EQ(got.serializedComm, want.serializedComm);
        EXPECT_EQ(got.dpComm, want.dpComm);
    }
}

TEST(IterationWalk, LayerSlackRoiMatchesPerSubLayerCosting)
{
    const profiling::IterationProfiler profiler =
        test::paperSystem().profiler();
    const profiling::RoiExtractor roi(profiler);
    for (const char *name : { "BERT", "GPT-3", "MT-NLG", "PaLM" }) {
        for (int tp : { 1, 8 }) {
            for (bool recompute : { false, true }) {
                SCOPED_TRACE(std::string(name) + " tp=" +
                             std::to_string(tp) +
                             (recompute ? " recompute" : ""));
                model::ParallelPlan par;
                par.tpDegree = tp;
                par.dpDegree = 4;
                const model::LayerGraphBuilder g(
                    model::zooModel(name).hp.withCompatibleHeads(tp),
                    par, hw::Precision::FP16, true, true, recompute);

                // Oracle: cost each sub-layer's region separately.
                profiling::SlackRoi sub[2];
                const model::SubLayer order[2] = {
                    model::SubLayer::Attention,
                    model::SubLayer::FeedForward
                };
                for (int s = 0; s < 2; ++s) {
                    for (const model::TrainingOp &op :
                         g.backwardLayerOps(0)) {
                        if (op.subLayer != order[s])
                            continue;
                        if (op.role == OpRole::BwdCompute &&
                            op.kernel.kind == hw::KernelKind::Gemm) {
                            sub[s].backpropComputeTime +=
                                profiler.profileOp(op, par).duration;
                        } else if (op.role == OpRole::DpAllReduce) {
                            sub[s].dpCommTime +=
                                profiler.profileOp(op, par).duration;
                            sub[s].gradientBytes += op.commBytes;
                        }
                    }
                }
                const profiling::SlackRoi got = roi.layerSlackRoi(g);
                EXPECT_EQ(got.backpropComputeTime,
                          sub[0].backpropComputeTime +
                              sub[1].backpropComputeTime);
                EXPECT_EQ(got.dpCommTime,
                          sub[0].dpCommTime + sub[1].dpCommTime);
                EXPECT_EQ(got.gradientBytes,
                          sub[0].gradientBytes + sub[1].gradientBytes);

                // The planner's path: the same ROI read off a full
                // one-layer profile.
                const profiling::SlackRoi from_layer =
                    profiling::layerSlackRoiFromRecords(
                        profiler.profileLayer(g, 0).records());
                EXPECT_EQ(from_layer.backpropComputeTime,
                          got.backpropComputeTime);
                EXPECT_EQ(from_layer.dpCommTime, got.dpCommTime);
                EXPECT_EQ(from_layer.gradientBytes, got.gradientBytes);
            }
        }
    }
}

TEST(IterationWalk, PlannerEnumerateMatchesUnhoistedEvaluate)
{
    core::PlannerOptions opts;
    opts.maxDevices = 1024;
    for (const char *name : { "GPT-3", "MT-NLG", "PaLM" }) {
        SCOPED_TRACE(name);
        const model::Hyperparams hp = model::zooModel(name).hp;
        const core::LayoutPlanner planner(test::paperSystem(), hp);

        // Oracle: evaluate() every layout in enumeration order, then
        // the same (unstable) sort, so ties land identically.
        std::vector<core::LayoutCandidate> want;
        for (int tp = 1; tp <= opts.maxTpDegree; tp *= 2) {
            if (hp.hidden % tp != 0 || hp.fcDim % tp != 0)
                continue;
            for (int pp = 1; pp <= opts.maxPipelineStages; pp *= 2) {
                if (pp > hp.numLayers)
                    break;
                for (int dp = 1; tp * pp * dp <= opts.maxDevices;
                     dp *= 2) {
                    for (int rc = 0; rc <= 1; ++rc) {
                        const core::LayoutCandidate c =
                            planner.evaluate(tp, dp, pp, rc != 0, opts);
                        if (c.fitsInMemory)
                            want.push_back(c);
                    }
                }
            }
        }
        std::sort(want.begin(), want.end(),
                  [](const core::LayoutCandidate &a,
                     const core::LayoutCandidate &b) {
                      return a.tokensPerSecond > b.tokensPerSecond;
                  });

        const std::vector<core::LayoutCandidate> got =
            planner.enumerate(opts);
        ASSERT_EQ(got.size(), want.size());
        ASSERT_FALSE(got.empty());
        for (std::size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(got[i].tpDegree, want[i].tpDegree);
            EXPECT_EQ(got[i].dpDegree, want[i].dpDegree);
            EXPECT_EQ(got[i].pipelineStages, want[i].pipelineStages);
            EXPECT_EQ(got[i].recompute, want[i].recompute);
            EXPECT_EQ(got[i].memoryPerDevice, want[i].memoryPerDevice);
            EXPECT_EQ(got[i].fitsInMemory, want[i].fitsInMemory);
            EXPECT_EQ(got[i].iterationTime, want[i].iterationTime);
            EXPECT_EQ(got[i].serializedCommTime,
                      want[i].serializedCommTime);
            EXPECT_EQ(got[i].exposedDpCommTime,
                      want[i].exposedDpCommTime);
            EXPECT_EQ(got[i].bubbleFraction, want[i].bubbleFraction);
            EXPECT_EQ(got[i].tokensPerSecond, want[i].tokensPerSecond);
        }
    }
}

} // namespace
} // namespace twocs
