/**
 * @file
 * Tests for the graph transformation pass framework: GraphBuilder
 * round trips, each concrete pass's rewrite semantics, the registry
 * and pipeline parser, the timing-preservation property on random
 * DAGs, bit-identity of pass-rewritten cluster / case-study replays,
 * and concurrent replay of one shared rewritten template.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "core/case_study.hh"
#include "core/cluster_sim.hh"
#include "sim/engine.hh"
#include "sim/passes.hh"
#include "test_common.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace twocs {
namespace {

using sim::GraphBuilder;
using sim::GraphTemplate;
using sim::InvalidTask;
using sim::PassPipeline;
using sim::ReplayScratch;
using sim::ResourceId;
using sim::TaskId;

/** Replay with base durations and return the placements. */
std::vector<sim::ScheduledTask>
replayBase(const GraphTemplate &graph)
{
    ReplayScratch scratch;
    sim::replay(graph, {}, scratch);
    return scratch.placements();
}

/** EXPECT byte-identical replay placements (same task count, same
 *  start/end bits per task). */
void
expectSamePlacements(const GraphTemplate &a, const GraphTemplate &b)
{
    const auto pa = replayBase(a);
    const auto pb = replayBase(b);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i].start, pb[i].start) << i;
        EXPECT_EQ(pa[i].end, pb[i].end) << i;
    }
}

/** EXPECT_NEAR with a relative tolerance (for FP-associativity
 *  differences between fused and unfused accumulation orders). */
void
expectClose(Seconds a, Seconds b)
{
    EXPECT_NEAR(a, b, 1e-9 * std::max(std::abs(a), 1.0));
}

/**
 * A small heterogeneous graph: two compute chains on separate
 * resources joined by a comm task, plus a trailing consumer.
 *
 *   r0: a0 -> a1 -> a2        (tag "compute")
 *   r1: b0 -> b1              (tag "compute")
 *   r2: x (deps a2, b1)       (tag "comm")
 *   r0: c (dep x)             (tag "compute")
 */
std::shared_ptr<const GraphTemplate>
diamondGraph()
{
    sim::EventSimulator des;
    const ResourceId r0 = des.addResource("r0");
    const ResourceId r1 = des.addResource("r1");
    const ResourceId r2 = des.addResource("r2");
    const TaskId a0 = des.addTask("a0", "compute", r0, 0.5, {});
    const TaskId a1 = des.addTask("a1", "compute", r0, 0.25, { a0 });
    const TaskId a2 = des.addTask("a2", "compute", r0, 0.125, { a1 });
    const TaskId b0 = des.addTask("b0", "compute", r1, 1.0, {});
    const TaskId b1 = des.addTask("b1", "compute", r1, 0.5, { b0 });
    const TaskId x = des.addTask("x", "comm", r2, 0.25, { a2, b1 });
    des.addTask("c", "compute", r0, 0.5, { x });
    return des.compile();
}

TEST(GraphPasses, RoundTripIsByteIdentical)
{
    // Thawing a template into a GraphBuilder and re-freezing it with
    // no passes must reproduce the source graph exactly: same
    // resources, labels, durations, and bit-identical placements.
    const auto source = diamondGraph();
    const GraphBuilder thawed(*source);
    EXPECT_EQ(thawed.numNodes(), source->numTasks());
    EXPECT_EQ(thawed.numAlive(), source->numTasks());
    const GraphBuilder::Compiled out = thawed.compile();
    ASSERT_NE(out.graph, nullptr);
    ASSERT_EQ(out.graph->numTasks(), source->numTasks());
    EXPECT_EQ(out.graph->numEdges(), source->numEdges());
    ASSERT_EQ(out.graph->numResources(), source->numResources());
    for (std::size_t r = 0; r < source->numResources(); ++r)
        EXPECT_EQ(out.graph->resourceName(static_cast<ResourceId>(r)),
                  source->resourceName(static_cast<ResourceId>(r)));
    for (std::size_t t = 0; t < source->numTasks(); ++t) {
        const auto id = static_cast<TaskId>(t);
        EXPECT_EQ(out.taskMap[t], id);
        EXPECT_EQ(out.graph->taskLabel(id), source->taskLabel(id));
        EXPECT_EQ(out.graph->taskTag(id), source->taskTag(id));
        EXPECT_EQ(out.graph->baseDuration(id),
                  source->baseDuration(id));
    }
    expectSamePlacements(*out.graph, *source);
}

TEST(GraphPasses, EmptyPipelineIsIdentity)
{
    const auto source = diamondGraph();
    const PassPipeline none;
    // apply() with no passes is a pointer passthrough...
    EXPECT_EQ(none.apply(source).get(), source.get());
    // ...and even a forced round trip through rewrite() replays
    // byte-for-byte, with terminals mapped onto themselves.
    const TaskId last =
        static_cast<TaskId>(source->numTasks() - 1);
    const GraphBuilder::Compiled out =
        none.rewrite(*source, std::span<const TaskId>(&last, 1));
    expectSamePlacements(*out.graph, *source);
    ASSERT_EQ(out.terminals.size(), 1u);
    EXPECT_EQ(out.terminals[0], last);
}

TEST(GraphPasses, FuseCollapsesLinearChain)
{
    sim::EventSimulator des;
    const ResourceId r = des.addResource("r");
    TaskId prev = InvalidTask;
    // Power-of-two durations: the fused sum is exact.
    for (double d : { 0.5, 0.25, 0.125, 0.0625 })
        prev = prev == InvalidTask
                   ? des.addTask("op", "compute", r, d, {})
                   : des.addTask("op", "compute", r, d, { prev });
    const auto source = des.compile();

    GraphBuilder g(*source);
    EXPECT_TRUE(sim::FuseLinearChains().apply(g));
    EXPECT_EQ(g.numAlive(), 1u);
    const GraphBuilder::Compiled out = g.compile();
    ASSERT_EQ(out.graph->numTasks(), 1u);
    EXPECT_DOUBLE_EQ(out.graph->baseDuration(0), 0.9375);
    // Every source task maps onto the one survivor.
    for (TaskId mapped : out.taskMap)
        EXPECT_EQ(mapped, 0u);
    EXPECT_DOUBLE_EQ(replayBase(*out.graph)[0].end,
                     replayBase(*source)[3].end);
}

TEST(GraphPasses, FuseStopsAtTagBoundary)
{
    sim::EventSimulator des;
    const ResourceId r = des.addResource("r");
    const TaskId a = des.addTask("a", "compute", r, 0.5, {});
    const TaskId b = des.addTask("b", "compute", r, 0.5, { a });
    const TaskId c = des.addTask("c", "comm", r, 0.5, { b });
    des.addTask("d", "comm", r, 0.5, { c });
    GraphBuilder g(*des.compile());
    EXPECT_TRUE(sim::FuseLinearChains().apply(g));
    // One "compute" run and one "comm" run; no cross-tag fold.
    EXPECT_EQ(g.numAlive(), 2u);
    const GraphBuilder::Compiled out = g.compile();
    EXPECT_EQ(out.graph->taskTag(0), "compute");
    EXPECT_EQ(out.graph->taskTag(1), "comm");
}

TEST(GraphPasses, FuseRequiresFifoAdjacency)
{
    // Two dependency chains interleaved on one resource: a1 -> a2
    // is a linear dependency chain, but b1 sits between them in the
    // FIFO, so folding a2 into a1 would reorder unrelated work.
    sim::EventSimulator des;
    const ResourceId r = des.addResource("r");
    const TaskId a1 = des.addTask("a1", "compute", r, 0.5, {});
    const TaskId b1 = des.addTask("b1", "compute", r, 0.5, {});
    des.addTask("a2", "compute", r, 0.5, { a1 });
    des.addTask("b2", "compute", r, 0.5, { b1 });
    GraphBuilder g(*des.compile());
    EXPECT_FALSE(sim::FuseLinearChains().apply(g));
    EXPECT_EQ(g.numAlive(), 4u);
}

TEST(GraphPasses, FuseRequiresUniqueConsumer)
{
    sim::EventSimulator des;
    const ResourceId r = des.addResource("r");
    const TaskId a = des.addTask("a", "compute", r, 0.5, {});
    des.addTask("b", "compute", r, 0.5, { a });
    des.addTask("c", "compute", r, 0.5, { a });
    GraphBuilder g(*des.compile());
    // b's only dep is a, but a fans out to b and c: no fold of b
    // into a. (c's FIFO predecessor is b, so no fold there either.)
    EXPECT_FALSE(sim::FuseLinearChains().apply(g));
    EXPECT_EQ(g.numAlive(), 3u);
}

TEST(GraphPasses, FuseKeepsTerminalBoundariesObservable)
{
    // A terminal mid-chain must stay a distinct task — its end time
    // is an observable output — while the chain ahead of it still
    // folds into it.
    sim::EventSimulator des;
    const ResourceId r = des.addResource("r");
    const TaskId a = des.addTask("a", "compute", r, 0.5, {});
    const TaskId b = des.addTask("b", "compute", r, 0.25, { a });
    des.addTask("c", "compute", r, 0.125, { b });
    const auto source = des.compile();

    GraphBuilder g(*source);
    g.markTerminal(b);
    EXPECT_TRUE(sim::FuseLinearChains().apply(g));
    // a folds into... a is b's FIFO predecessor and sole producer,
    // so b folds into a; c cannot fold into the merged node because
    // it is now marked terminal.
    EXPECT_EQ(g.numAlive(), 2u);
    const GraphBuilder::Compiled out = g.compile();
    ASSERT_EQ(out.terminals.size(), 1u);
    const auto ref = replayBase(*source);
    const auto got = replayBase(*out.graph);
    EXPECT_DOUBLE_EQ(got[out.terminals[0]].end, ref[b].end);
}

TEST(GraphPasses, DceDropsUnobservedTail)
{
    sim::EventSimulator des;
    const ResourceId r0 = des.addResource("r0");
    const ResourceId r1 = des.addResource("r1");
    const TaskId a = des.addTask("a", "compute", r0, 0.5, {});
    const TaskId b = des.addTask("b", "compute", r0, 0.5, { a });
    const TaskId c = des.addTask("c", "comm", r1, 0.5, { b });
    des.addTask("d", "comm", r1, 9.0, { c }); // unobserved tail
    const auto source = des.compile();

    GraphBuilder g(*source);
    g.markTerminal(c);
    EXPECT_TRUE(sim::DeadNodeElimination().apply(g));
    EXPECT_EQ(g.numAlive(), 3u);
    const GraphBuilder::Compiled out = g.compile();
    ASSERT_EQ(out.terminals.size(), 1u);
    // DCE is exact: the terminal's placement is bit-identical.
    const auto ref = replayBase(*source);
    const auto got = replayBase(*out.graph);
    EXPECT_EQ(got[out.terminals[0]].start, ref[c].start);
    EXPECT_EQ(got[out.terminals[0]].end, ref[c].end);
}

TEST(GraphPasses, DceKeepsFifoPredecessorsOfKeptWork)
{
    // An unobserved task that runs *before* a kept task on the same
    // resource delays it through the FIFO; removing it would change
    // the kept task's start. DCE must keep it.
    sim::EventSimulator des;
    const ResourceId r = des.addResource("r");
    des.addTask("noise", "compute", r, 1.0, {});
    const TaskId k = des.addTask("k", "compute", r, 0.5, {});
    const auto source = des.compile();

    GraphBuilder g(*source);
    g.markTerminal(k);
    EXPECT_FALSE(sim::DeadNodeElimination().apply(g));
    EXPECT_EQ(g.numAlive(), 2u);
    const GraphBuilder::Compiled out = g.compile();
    const auto ref = replayBase(*source);
    const auto got = replayBase(*out.graph);
    EXPECT_EQ(got[out.terminals[0]].start, ref[k].start);
    EXPECT_EQ(got[out.terminals[0]].end, ref[k].end);
}

TEST(GraphPasses, DceWithoutTerminalsIsNoOp)
{
    GraphBuilder g(*diamondGraph());
    EXPECT_FALSE(sim::DeadNodeElimination().apply(g));
    EXPECT_EQ(g.numAlive(), g.numNodes());
}

TEST(GraphPasses, TileGemmSplitsTaggedTasks)
{
    sim::EventSimulator des;
    const ResourceId r0 = des.addResource("r0");
    const ResourceId r1 = des.addResource("r1");
    const TaskId gemm = des.addTask("gemm", "compute", r0, 1.0, {});
    const TaskId comm = des.addTask("ar", "comm", r1, 0.5, { gemm });
    des.addTask("tail", "compute", r0, 0.25, { gemm });
    const auto source = des.compile();

    const std::vector<TaskId> terminals = { gemm };
    const GraphBuilder::Compiled out =
        PassPipeline::parse("tile_gemm=4:compute")
            .rewrite(*source, terminals);
    // gemm and tail both carry "compute": each splits into 4 tiles.
    ASSERT_EQ(out.graph->numTasks(), 9u);
    // 1.0 / 4 is exact, so tile end times reproduce exactly; the
    // consumer now waits on the last tile.
    const auto ref = replayBase(*source);
    const auto got = replayBase(*out.graph);
    EXPECT_EQ(got[out.taskMap[comm]].start, ref[comm].start);
    EXPECT_EQ(got[out.taskMap[comm]].end, ref[comm].end);
    // The original id becomes tile 0 (keeping its FIFO slot); the
    // terminal mark moves to the last tile, whose end time matches
    // the unsplit task's.
    EXPECT_EQ(out.graph->taskLabel(out.taskMap[gemm]), "gemm");
    EXPECT_EQ(out.graph->baseDuration(out.taskMap[gemm]), 0.25);
    ASSERT_EQ(out.terminals.size(), 1u);
    EXPECT_EQ(got[out.terminals[0]].end, ref[gemm].end);
    EXPECT_EQ(out.graph->taskLabel(out.terminals[0]), "gemm_t3");
}

TEST(GraphPasses, TileGemmSingleTileIsNoOp)
{
    GraphBuilder g(*diamondGraph());
    EXPECT_FALSE(sim::TileGemm(1).apply(g));
    EXPECT_EQ(g.numAlive(), g.numNodes());
}

TEST(GraphPasses, SpliceOutRemovesTaggedSteps)
{
    sim::EventSimulator des;
    const ResourceId r0 = des.addResource("r0");
    const ResourceId r1 = des.addResource("r1");
    const TaskId p = des.addTask("p", "compute", r0, 1.0, {});
    const TaskId s1 = des.addTask("s1", "ring_step", r1, 0.5, { p });
    const TaskId s2 = des.addTask("s2", "ring_step", r1, 0.5, { s1 });
    const TaskId c = des.addTask("c", "compute", r0, 1.0, { s2 });
    const auto source = des.compile();

    GraphBuilder g(*source);
    sim::SpliceCollective::Options opt;
    opt.collectiveTag = "ring_step";
    EXPECT_TRUE(sim::SpliceCollective(opt).apply(g));
    EXPECT_EQ(g.numAlive(), 2u);
    const GraphBuilder::Compiled out = g.compile();
    EXPECT_EQ(out.taskMap[s1], InvalidTask);
    EXPECT_EQ(out.taskMap[s2], InvalidTask);
    // The consumer bypasses straight to the producer: a "free
    // collective" what-if. End = p.end + c.duration.
    const auto got = replayBase(*out.graph);
    EXPECT_DOUBLE_EQ(got[out.taskMap[c]].start, 1.0);
    EXPECT_DOUBLE_EQ(got[out.taskMap[c]].end, 2.0);
}

TEST(GraphPasses, SpliceRingInsertsSerializedChain)
{
    sim::EventSimulator des;
    const ResourceId r = des.addResource("r");
    const TaskId p = des.addTask("p", "grad", r, 1.0, {});
    const TaskId c = des.addTask("c", "compute", r, 1.0, { p });
    const auto source = des.compile();

    GraphBuilder g(*source);
    sim::SpliceCollective::Options opt;
    opt.producerTag = "grad";
    opt.steps = 3;
    opt.stepTime = 0.25;
    EXPECT_TRUE(sim::SpliceCollective(opt).apply(g));
    EXPECT_EQ(g.numAlive(), 5u);
    const GraphBuilder::Compiled out = g.compile();
    // The consumer now waits for the 3-step collective: its start
    // moves out by exactly 3 * 0.25.
    const auto got = replayBase(*out.graph);
    EXPECT_DOUBLE_EQ(got[out.taskMap[c]].start, 1.75);
    EXPECT_DOUBLE_EQ(got[out.taskMap[c]].end, 2.75);
}

TEST(GraphPasses, RegistrySpecsRoundTrip)
{
    // Every registry pass builds from a sample spec, and spec()
    // text parses back to a pass with the same spec.
    const std::vector<std::string> samples = {
        "fuse",
        "dce",
        "tile_gemm=4:compute",
        "splice_out=ring_step",
        "splice_ring=grad:6:0.0005",
    };
    EXPECT_EQ(sim::passRegistry().size(), samples.size());
    for (const std::string &text : samples) {
        const std::unique_ptr<sim::Pass> pass = sim::makePass(text);
        ASSERT_NE(pass, nullptr) << text;
        const std::unique_ptr<sim::Pass> again =
            sim::makePass(pass->spec());
        EXPECT_EQ(again->spec(), pass->spec()) << text;
        EXPECT_EQ(again->preservesTiming(), pass->preservesTiming());
    }
    // Pipelines round-trip through describe().
    const PassPipeline p = PassPipeline::parse("fuse,tile_gemm=2,dce");
    EXPECT_EQ(PassPipeline::parse(p.describe()).describe(),
              p.describe());
    EXPECT_EQ(p.size(), 3u);
}

TEST(GraphPasses, ParserRejectsUnknownAndMalformed)
{
    EXPECT_THROW(sim::makePass("nope"), FatalError);
    EXPECT_THROW(sim::makePass("fuse=arg"), FatalError);
    EXPECT_THROW(sim::makePass("tile_gemm"), FatalError);
    EXPECT_THROW(sim::makePass("tile_gemm=0"), FatalError);
    EXPECT_THROW(sim::makePass("tile_gemm=x"), FatalError);
    EXPECT_THROW(sim::makePass("splice_ring=grad"), FatalError);
    EXPECT_THROW(sim::makePass("splice_ring=grad:0:1e-3"),
                 FatalError);
    EXPECT_THROW(PassPipeline::parse("fuse,bogus"), FatalError);
}

TEST(GraphPasses, ParserSkipsNoneAndBlanks)
{
    EXPECT_TRUE(PassPipeline::parse("").empty());
    EXPECT_TRUE(PassPipeline::parse("none").empty());
    const PassPipeline p = PassPipeline::parse(" none , fuse , ");
    EXPECT_EQ(p.size(), 1u);
    EXPECT_EQ(p.describe(), "fuse");
}

/**
 * A random layered DAG on a few resources with mixed tags, plus the
 * subset of tasks marked terminal (as template ids).
 */
struct RandomDag
{
    std::shared_ptr<const GraphTemplate> graph;
    std::vector<TaskId> terminals;
};

RandomDag
randomDag(std::uint64_t seed)
{
    Rng rng(seed);
    sim::EventSimulator des;
    constexpr int kResources = 3;
    constexpr int kTasks = 60;
    for (int r = 0; r < kResources; ++r)
        des.addResource("r" + std::to_string(r));
    const char *tags[] = { "compute", "compute", "comm", "misc" };
    RandomDag out;
    for (int i = 0; i < kTasks; ++i) {
        std::vector<TaskId> deps;
        const int want = static_cast<int>(rng.nextU64() % 3);
        for (int d = 0; d < want && i > 0; ++d) {
            const TaskId dep =
                static_cast<TaskId>(rng.nextU64() % i);
            if (std::find(deps.begin(), deps.end(), dep) ==
                deps.end())
                deps.push_back(dep);
        }
        const auto res = static_cast<ResourceId>(
            rng.nextU64() % kResources);
        const TaskId id = des.addTask(
            "t" + std::to_string(i), tags[rng.nextU64() % 4], res,
            1e-4 + 1e-3 * rng.nextDouble(), std::move(deps));
        if (rng.nextDouble() < 0.25 || i == kTasks - 1)
            out.terminals.push_back(id);
    }
    out.graph = des.compile();
    return out;
}

TEST(PassProperty, TimingPassesPreserveTerminalEndTimes)
{
    // The contract: every pipeline of timing-preserving passes keeps
    // each marked terminal's end time (up to FP associativity) on
    // arbitrary DAGs, whatever it fuses, drops, or splits.
    const std::vector<std::string> pipelines = {
        "fuse",
        "dce",
        "tile_gemm=3:compute",
        "fuse,dce",
        "tile_gemm=2:compute,fuse,dce",
    };
    for (const std::string &text : pipelines) {
        const PassPipeline pipeline = PassPipeline::parse(text);
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            const RandomDag dag = randomDag(seed);
            const auto ref = replayBase(*dag.graph);
            const GraphBuilder::Compiled out =
                pipeline.rewrite(*dag.graph, dag.terminals);
            const auto got = replayBase(*out.graph);
            ASSERT_EQ(out.terminals.size(), dag.terminals.size());
            for (std::size_t i = 0; i < dag.terminals.size(); ++i) {
                ASSERT_NE(out.terminals[i], InvalidTask)
                    << text << " seed " << seed;
                expectClose(got[out.terminals[i]].end,
                            ref[dag.terminals[i]].end);
            }
        }
    }
}

TEST(PassProperty, SplicePassesDeclareTimingChanges)
{
    // The splice passes rewrite the *workload*, not the encoding;
    // they must opt out of the end-time contract.
    EXPECT_FALSE(sim::makePass("splice_out")->preservesTiming());
    EXPECT_FALSE(
        sim::makePass("splice_ring=grad:2:1e-3")->preservesTiming());
    EXPECT_TRUE(sim::makePass("fuse")->preservesTiming());
    EXPECT_TRUE(sim::makePass("dce")->preservesTiming());
    EXPECT_TRUE(sim::makePass("tile_gemm=2")->preservesTiming());
}

core::ClusterSimConfig
clusterConfig(double jitter = 0.0)
{
    core::ClusterSimConfig cfg;
    cfg.hidden = 4096;
    cfg.seqLen = 1024;
    cfg.tpDegree = 4;
    cfg.numLayers = 2;
    cfg.computeJitter = jitter;
    return cfg;
}

TEST(PassReplay, NonePipelineByteIdenticalOnClusterGraph)
{
    const core::ClusterSim sim;
    const auto graph = sim.compileIteration(clusterConfig());
    const GraphBuilder::Compiled out =
        PassPipeline().rewrite(*graph, {});
    expectSamePlacements(*out.graph, *graph);
}

TEST(PassReplay, NonePipelineByteIdenticalOnCaseStudyGraph)
{
    core::CaseStudy study;
    core::CaseStudyConfig cfg;
    cfg.tpDegree = 8;
    cfg.dpDegree = 2;
    const auto graph = study.compileGraph(cfg);
    const GraphBuilder::Compiled out =
        PassPipeline().rewrite(*graph, {});
    expectSamePlacements(*out.graph, *graph);
}

TEST(PassReplay, FuseDcePreservesClusterMakespan)
{
    const core::ClusterSim sim;
    const auto graph = sim.compileIteration(clusterConfig());
    const auto fused =
        PassPipeline::parse("fuse,dce").apply(graph);
    // The rewrite must actually shrink this graph, and still land
    // on the same makespan and per-resource busy time.
    EXPECT_LT(fused->numTasks(), graph->numTasks());
    ReplayScratch ref, got;
    sim::replay(*graph, {}, ref);
    sim::replay(*fused, {}, got);
    expectClose(got.makespan(), ref.makespan());
    ASSERT_EQ(fused->numResources(), graph->numResources());
    for (std::size_t r = 0; r < graph->numResources(); ++r)
        expectClose(got.busyTotal(static_cast<ResourceId>(r)),
                    ref.busyTotal(static_cast<ResourceId>(r)));
}

TEST(PassReplay, FuseDceCaseStudyMatchesReference)
{
    core::CaseStudy study;
    core::CaseStudyConfig cfg;
    cfg.tpDegree = 8;
    cfg.dpDegree = 2;
    const core::CaseStudyResult ref = study.run(cfg);
    core::CaseStudyConfig rewritten = cfg;
    rewritten.passes = "fuse,dce";
    const core::CaseStudyResult got = study.run(rewritten);
    expectClose(got.makespan, ref.makespan);
    expectClose(got.computeTime, ref.computeTime);
    expectClose(got.serializedCommTime, ref.serializedCommTime);
    expectClose(got.overlappedCommTime, ref.overlappedCommTime);
}

void
expectIdenticalTrials(const core::ClusterTrialSummary &a,
                      const core::ClusterTrialSummary &b)
{
    EXPECT_EQ(a.meanIterationTime, b.meanIterationTime);
    EXPECT_EQ(a.worstIterationTime, b.worstIterationTime);
    ASSERT_EQ(a.trials.size(), b.trials.size());
    for (std::size_t i = 0; i < a.trials.size(); ++i) {
        EXPECT_EQ(a.trials[i].iterationTime,
                  b.trials[i].iterationTime)
            << i;
        EXPECT_EQ(a.trials[i].stallTimePerDevice,
                  b.trials[i].stallTimePerDevice)
            << i;
    }
}

TEST(PassReplay, FuseDceClusterTrialsIdenticalAcrossJobsAndEngines)
{
    // With a pass pipeline active, trial results must still be
    // independent of the jobs count and match one run() per trial:
    // both rewrite the same graph and draw noise in the same
    // compiled-task order.
    const core::ClusterSim sim;
    core::ClusterSimConfig cfg = clusterConfig(0.10);
    cfg.passes = "fuse,dce";
    const core::ClusterTrialSummary reference =
        test::perTrialRuns(sim, cfg, 6);
    for (int jobs : { 1, 2, 4 }) {
        exec::RunnerOptions runner;
        runner.jobs = jobs;
        expectIdenticalTrials(reference,
                              sim.runTrials(cfg, 6, runner));
    }
}

TEST(PassConcurrency, SharedRewrittenTemplateReplaysAreIndependent)
{
    // One pass-rewritten template shared across threads, each
    // replaying its own jittered duration vectors into its own
    // scratch: results must match a serial rerun bit for bit.
    const core::ClusterSim sim;
    core::ClusterSimConfig cfg = clusterConfig();
    cfg.passes = "fuse,dce";
    const auto graph = sim.compileIteration(cfg);

    constexpr int kThreads = 4;
    constexpr int kReplays = 25;
    const auto makespanAt = [&graph](std::uint64_t seed) {
        Rng rng(seed);
        std::vector<Seconds> durations = graph->baseDurations();
        for (std::size_t t = 0; t < durations.size(); ++t) {
            if (graph->taskTag(static_cast<TaskId>(t)) == "compute")
                durations[t] *= rng.noiseFactor(0.05);
        }
        ReplayScratch scratch;
        sim::replay(*graph, durations, scratch);
        return scratch.makespan();
    };

    std::vector<std::vector<Seconds>> results(kThreads);
    std::vector<std::thread> threads;
    for (int k = 0; k < kThreads; ++k) {
        threads.emplace_back([&, k] {
            for (int i = 0; i < kReplays; ++i)
                results[k].push_back(makespanAt(
                    splitmixSeed(static_cast<std::uint64_t>(k),
                                 static_cast<std::uint64_t>(i))));
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int k = 0; k < kThreads; ++k) {
        ASSERT_EQ(results[k].size(),
                  static_cast<std::size_t>(kReplays));
        for (int i = 0; i < kReplays; ++i) {
            EXPECT_EQ(results[k][i],
                      makespanAt(splitmixSeed(
                          static_cast<std::uint64_t>(k),
                          static_cast<std::uint64_t>(i))))
                << k << "/" << i;
        }
    }
}

} // namespace
} // namespace twocs
