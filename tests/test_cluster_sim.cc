/**
 * @file
 * Tests for the explicit multi-device cluster simulation.
 */

#include <gtest/gtest.h>

#include "core/amdahl.hh"
#include "core/case_study.hh"
#include "core/cluster_sim.hh"
#include "core/lowering.hh"
#include "test_common.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace twocs::core {
namespace {

ClusterSimConfig
smallConfig(int tp = 4, double jitter = 0.0)
{
    ClusterSimConfig cfg;
    cfg.hidden = 4096;
    cfg.seqLen = 1024;
    cfg.tpDegree = tp;
    cfg.numLayers = 2;
    cfg.computeJitter = jitter;
    return cfg;
}

TEST(ClusterSim, ExactRunMatchesSpmdModelClosely)
{
    // With zero jitter, the explicit group behaves like one
    // representative device: iteration = compute + serialized comm
    // per the single-device ground truth, within the ring-model
    // approximation gap.
    ClusterSim sim;
    const auto r = sim.run(smallConfig());

    AmdahlAnalysis analysis(test::paperSystem());
    auto graph = analysis.makeGraph(4096, 1024, 1, 4);
    // Compare per-layer critical path: scale the 24-layer direct
    // simulation down to the 2 layers simulated here.
    const auto direct = analysis.evaluateDirect(4096, 1024, 1, 4);
    const Seconds spmd_two_layers =
        (direct.computeTime + direct.serializedCommTime) * 2.0 /
        graph.hyperparams().numLayers;
    EXPECT_NEAR(r.iterationTime / spmd_two_layers, 1.0, 0.15);
}

TEST(ClusterSim, ZeroJitterHasNegligibleStall)
{
    ClusterSim sim;
    const auto r = sim.run(smallConfig());
    EXPECT_LT(r.stallFraction(), 0.02);
}

TEST(ClusterSim, JitterCreatesStallAndSlowdown)
{
    ClusterSim sim;
    const auto exact = sim.run(smallConfig(4, 0.0));
    const auto noisy = sim.run(smallConfig(4, 0.10));
    EXPECT_GT(noisy.iterationTime, exact.iterationTime);
    EXPECT_GT(noisy.stallTimePerDevice,
              exact.stallTimePerDevice + 1e-6);
}

TEST(ClusterSim, DeterministicForSeed)
{
    ClusterSim sim;
    const auto a = sim.run(smallConfig(4, 0.05));
    const auto b = sim.run(smallConfig(4, 0.05));
    EXPECT_DOUBLE_EQ(a.iterationTime, b.iterationTime);

    ClusterSimConfig other = smallConfig(4, 0.05);
    other.seed = 99;
    const auto c = sim.run(other);
    EXPECT_NE(a.iterationTime, c.iterationTime);
}

TEST(ClusterSim, LargerGroupsSpendMoreTimeCommunicating)
{
    ClusterSim sim;
    const auto p4 = sim.run(smallConfig(4));
    const auto p16 = sim.run(smallConfig(16));
    EXPECT_GT(p16.commFraction(), p4.commFraction());
}

void
expectIdentical(const ClusterTrialSummary &a,
                const ClusterTrialSummary &b)
{
    EXPECT_EQ(a.meanIterationTime, b.meanIterationTime);
    EXPECT_EQ(a.worstIterationTime, b.worstIterationTime);
    ASSERT_EQ(a.trials.size(), b.trials.size());
    for (std::size_t i = 0; i < a.trials.size(); ++i) {
        EXPECT_EQ(a.trials[i].iterationTime,
                  b.trials[i].iterationTime)
            << i;
        EXPECT_EQ(a.trials[i].commTimePerDevice,
                  b.trials[i].commTimePerDevice)
            << i;
        EXPECT_EQ(a.trials[i].computeTimePerDevice,
                  b.trials[i].computeTimePerDevice)
            << i;
        EXPECT_EQ(a.trials[i].stallTimePerDevice,
                  b.trials[i].stallTimePerDevice)
            << i;
    }
}

TEST(ClusterReplay, TrialsMatchRebuildBitForBitAtAnyJobs)
{
    // The compiled-replay trial loop must reproduce one
    // from-scratch run() per trial exactly — same seeds, same noise
    // draws, same FP accumulation order — at every jobs count.
    ClusterSim sim;
    const ClusterSimConfig cfg = smallConfig(4, 0.10);
    const ClusterTrialSummary reference =
        test::perTrialRuns(sim, cfg, 8);
    for (int jobs : { 1, 2, 4 }) {
        exec::RunnerOptions runner;
        runner.jobs = jobs;
        expectIdentical(reference, sim.runTrials(cfg, 8, runner));
    }
}

TEST(ClusterReplay, SingleTrialMatchesRun)
{
    // Trial 0 runs with the splitmix-derived seed; run() with that
    // same seed reproduces it exactly.
    ClusterSim sim;
    const ClusterSimConfig cfg = smallConfig(4, 0.05);
    ClusterSimConfig derived = cfg;
    derived.seed = splitmixSeed(cfg.seed, 0);
    const ClusterSimResult direct = sim.run(derived);
    const ClusterTrialSummary trials = sim.runTrials(cfg, 1);
    ASSERT_EQ(trials.trials.size(), 1u);
    EXPECT_EQ(trials.trials[0].iterationTime, direct.iterationTime);
    EXPECT_EQ(trials.trials[0].commTimePerDevice,
              direct.commTimePerDevice);
    EXPECT_EQ(trials.trials[0].computeTimePerDevice,
              direct.computeTimePerDevice);
    EXPECT_EQ(trials.trials[0].stallTimePerDevice,
              direct.stallTimePerDevice);
}

TEST(ClusterReplay, AdjacentBaseSeedsDrawDistinctTrialStreams)
{
    // The old config.seed + i derivation made base seeds s and
    // s + 1 share all but one of their trial streams; the splitmix
    // mix must decorrelate the whole family.
    ClusterSim sim;
    ClusterSimConfig a = smallConfig(4, 0.10);
    ClusterSimConfig b = a;
    a.seed = 7;
    b.seed = 8;
    const ClusterTrialSummary ta = sim.runTrials(a, 6);
    const ClusterTrialSummary tb = sim.runTrials(b, 6);
    for (std::size_t i = 0; i < ta.trials.size(); ++i) {
        for (std::size_t j = 0; j < tb.trials.size(); ++j) {
            EXPECT_NE(ta.trials[i].iterationTime,
                      tb.trials[j].iterationTime)
                << i << " vs " << j;
        }
    }
}

TEST(ClusterReplay, CompiledIterationExposesShape)
{
    ClusterSim sim;
    const ClusterSimConfig cfg = smallConfig(4);
    const std::shared_ptr<const sim::GraphTemplate> graph =
        sim.compileIteration(cfg);
    ASSERT_NE(graph, nullptr);
    // One compute + one comm stream per device.
    EXPECT_EQ(graph->numResources(), 8u);
    EXPECT_GT(graph->numTasks(), 0u);
    EXPECT_GT(graph->numEdges(), 0u);
    // The builder interleaves streams: compute d at 2d, comm at
    // 2d + 1 (the replay engine relies on this layout).
    EXPECT_EQ(graph->resourceName(0), "compute0");
    EXPECT_EQ(graph->resourceName(1), "comm0");
    EXPECT_EQ(graph->resourceName(6), "compute3");
    EXPECT_EQ(graph->resourceName(7), "comm3");
}

/**
 * The DP dependency rule of core::lowerIteration: every `dp_ar` task
 * depends on exactly the compute task emitted just before it on its
 * device, and only optimizer steps wait on `dp_ar` tasks.
 */
void
expectDpHangsOffPrecedingCompute(const sim::GraphTemplate &graph,
                                 int devices)
{
    std::vector<sim::TaskId> last_compute(devices, sim::InvalidTask);
    int dp_tasks = 0, optimizer_waits = 0;
    for (std::size_t i = 0; i < graph.numTasks(); ++i) {
        const auto id = static_cast<sim::TaskId>(i);
        const int device = graph.taskResource(id) / 2;
        if (graph.taskTag(id) == "compute") {
            for (const sim::TaskId dep : graph.deps(id)) {
                if (graph.taskTag(dep) != "dp_ar")
                    continue;
                EXPECT_EQ(graph.taskLabel(id), "optim_step") << id;
                ++optimizer_waits;
            }
            last_compute[device] = id;
        } else if (graph.taskTag(id) == "dp_ar") {
            EXPECT_EQ(graph.taskResource(id), commStream(device));
            ASSERT_EQ(graph.deps(id).size(), 1u) << id;
            EXPECT_EQ(graph.deps(id)[0], last_compute[device]) << id;
            ++dp_tasks;
        } else {
            for (const sim::TaskId dep : graph.deps(id))
                EXPECT_NE(graph.taskTag(dep), "dp_ar") << id;
        }
    }
    EXPECT_GT(dp_tasks, 0);
    EXPECT_GT(optimizer_waits, 0);
}

TEST(Lowering, DpCollectivesHangOffThePrecedingComputeTask)
{
    // One device: the case-study shape.
    CaseStudyConfig one;
    one.hidden = 4096;
    one.seqLen = 1024;
    one.tpDegree = 4;
    one.dpDegree = 4;
    const auto case_graph = CaseStudy().compileGraph(one);
    EXPECT_EQ(case_graph->numResources(), 2u);
    EXPECT_EQ(case_graph->resourceName(computeStream(0)), "compute");
    EXPECT_EQ(case_graph->resourceName(commStream(0)), "comm");
    expectDpHangsOffPrecedingCompute(*case_graph, 1);

    // p devices: the cluster shape, ZeRO-2 included (two DP
    // collectives per sub-layer).
    for (const char *plan : { "dp=2", "dp=4,zero=2" }) {
        ClusterSimConfig group = smallConfig(4);
        group.plan = model::ParallelPlan::parse(plan);
        const auto cluster_graph = ClusterSim().compileIteration(group);
        EXPECT_EQ(cluster_graph->numResources(), 8u);
        expectDpHangsOffPrecedingCompute(*cluster_graph, 4);
    }
}

ClusterSimConfig
dpConfig(bool overlap)
{
    ClusterSimConfig cfg;
    cfg.plan = model::ParallelPlan::parse("tp=4,dp=8");
    cfg.plan.overlapDpComm = overlap;
    cfg.tpDegree = cfg.plan.tpDegree;
    return cfg;
}

TEST(ClusterSim, DpOverlapHidesCommUnderCompute)
{
    // Zero jitter: with overlap on, DP gradient collectives run under
    // later backward compute, so the iteration is shorter than the
    // busy times laid end to end.
    const ClusterSimResult r = ClusterSim().run(dpConfig(true));
    EXPECT_LT(r.iterationTime,
              r.computeTimePerDevice + r.commTimePerDevice);
    EXPECT_EQ(r.stallTimePerDevice, 0.0);
}

TEST(ClusterSim, OverlapOffSerializesDpComm)
{
    // overlap=0 moves every DP collective and optimizer step to the
    // end of the iteration: nothing overlaps, and the iteration is
    // exactly compute + comm (up to FP summation order).
    const ClusterSim sim;
    const ClusterSimResult off = sim.run(dpConfig(false));
    const ClusterSimResult on = sim.run(dpConfig(true));
    EXPECT_NEAR(off.iterationTime,
                off.computeTimePerDevice + off.commTimePerDevice,
                1e-12 * off.iterationTime);
    EXPECT_GT(off.iterationTime, on.iterationTime);
    // Overlap changes placement, not the work.
    EXPECT_NEAR(off.commTimePerDevice, on.commTimePerDevice,
                1e-12 * on.commTimePerDevice);
    EXPECT_NEAR(off.computeTimePerDevice, on.computeTimePerDevice,
                1e-12 * on.computeTimePerDevice);
}

TEST(ClusterSim, Validation)
{
    ClusterSim sim;
    ClusterSimConfig cfg = smallConfig(1);
    EXPECT_THROW(sim.run(cfg), FatalError);
    cfg = smallConfig(4);
    cfg.numLayers = 0;
    EXPECT_THROW(sim.run(cfg), FatalError);
    cfg = smallConfig(4);
    cfg.computeJitter = -0.1;
    EXPECT_THROW(sim.run(cfg), FatalError);
}

} // namespace
} // namespace twocs::core
