/**
 * @file
 * Tests for the compiled task-graph layer (sim/graph.hh): CSR
 * structure, replay-vs-run equivalence, the zero-allocation replay
 * contract, and concurrent replays of one shared template.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "sim/engine.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace twocs::sim {
namespace {

/** A small two-stream graph with fan-in/fan-out dependencies. */
EventSimulator
buildDiamond()
{
    EventSimulator des;
    const ResourceId a = des.addResource("a");
    const ResourceId b = des.addResource("b");
    const TaskId src = des.addTask("src", "comp", a, 1.0);
    const TaskId left = des.addTask("left", "comp", a, 2.0, { src });
    const TaskId right = des.addTask("right", "comm", b, 3.0, { src });
    des.addTask("sink", "comp", a, 1.0, { left, right });
    return des;
}

TEST(GraphTemplate, CsrStructureMatchesBuilder)
{
    const EventSimulator des = buildDiamond();
    const std::shared_ptr<const GraphTemplate> g = des.compile();
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->numTasks(), 4u);
    EXPECT_EQ(g->numResources(), 2u);
    EXPECT_EQ(g->numEdges(), 4u);

    EXPECT_EQ(g->resourceName(0), "a");
    EXPECT_EQ(g->resourceName(1), "b");
    EXPECT_EQ(g->taskResource(2), 1);
    EXPECT_DOUBLE_EQ(g->baseDuration(2), 3.0);
    EXPECT_EQ(g->taskLabel(0), "src");
    EXPECT_EQ(g->taskTag(2), "comm");

    EXPECT_TRUE(g->deps(0).empty());
    ASSERT_EQ(g->deps(1).size(), 1u);
    EXPECT_EQ(g->deps(1)[0], 0);
    ASSERT_EQ(g->deps(3).size(), 2u);
    EXPECT_EQ(g->deps(3)[0], 1);
    EXPECT_EQ(g->deps(3)[1], 2);

    // The template shares the builder's intern table.
    EXPECT_EQ(&g->interner(), &des.interner());
}

TEST(GraphTemplate, ReplayMatchesRun)
{
    const EventSimulator des = buildDiamond();
    const Schedule reference = des.run();

    const std::shared_ptr<const GraphTemplate> g = des.compile();
    ReplayScratch scratch;
    replay(*g, {}, scratch);

    EXPECT_EQ(scratch.makespan(), reference.makespan());
    ASSERT_EQ(scratch.placements().size(), reference.numTasks());
    for (std::size_t i = 0; i < scratch.placements().size(); ++i) {
        const auto id = static_cast<TaskId>(i);
        EXPECT_EQ(scratch.placements()[i].start,
                  reference.placement(id).start)
            << i;
        EXPECT_EQ(scratch.placements()[i].end,
                  reference.placement(id).end)
            << i;
    }
    EXPECT_EQ(scratch.busyTotal(0), reference.busyTime(0));
    EXPECT_EQ(scratch.busyTotal(1), reference.busyTime(1));
}

TEST(GraphTemplate, CustomDurationsMatchFreshSimulator)
{
    // Replaying a perturbed duration vector must equal building a
    // brand-new graph with those durations, placement for placement.
    Rng rng(7);
    const EventSimulator des = buildDiamond();
    const std::shared_ptr<const GraphTemplate> g = des.compile();

    std::vector<Seconds> perturbed(g->numTasks());
    for (Seconds &d : perturbed)
        d = rng.nextDouble() * 3.0;

    EventSimulator fresh;
    const ResourceId a = fresh.addResource("a");
    const ResourceId b = fresh.addResource("b");
    const TaskId src = fresh.addTask("src", "comp", a, perturbed[0]);
    const TaskId left =
        fresh.addTask("left", "comp", a, perturbed[1], { src });
    const TaskId right =
        fresh.addTask("right", "comm", b, perturbed[2], { src });
    fresh.addTask("sink", "comp", a, perturbed[3], { left, right });
    const Schedule reference = fresh.run();

    ReplayScratch scratch;
    replay(*g, perturbed, scratch);
    EXPECT_EQ(scratch.makespan(), reference.makespan());
    for (std::size_t i = 0; i < g->numTasks(); ++i) {
        const auto id = static_cast<TaskId>(i);
        EXPECT_EQ(scratch.placements()[i].start,
                  reference.placement(id).start)
            << i;
        EXPECT_EQ(scratch.placements()[i].end,
                  reference.placement(id).end)
            << i;
    }
}

TEST(GraphTemplate, ReplayAllocatesNoPerTrialStorage)
{
    // The zero-allocation contract: once a scratch is bound to a
    // template, further replays reuse the same buffers (stable data
    // pointers) and never touch the shared intern table.
    const EventSimulator des = buildDiamond();
    const std::shared_ptr<const GraphTemplate> g = des.compile();

    ReplayScratch scratch;
    scratch.bind(*g);
    replay(*g, {}, scratch);
    const ScheduledTask *const placed_data =
        scratch.placements().data();
    const std::size_t vocabulary = g->interner().size();

    std::vector<Seconds> durations(g->numTasks());
    Rng rng(11);
    for (int trial = 0; trial < 100; ++trial) {
        for (Seconds &d : durations)
            d = rng.nextDouble();
        replay(*g, durations, scratch);
        ASSERT_EQ(scratch.placements().data(), placed_data)
            << "replay reallocated its placement buffer on trial "
            << trial;
    }
    EXPECT_EQ(g->interner().size(), vocabulary);
}

TEST(GraphTemplate, ReplayRejectsWrongSizeDurations)
{
    const EventSimulator des = buildDiamond();
    const std::shared_ptr<const GraphTemplate> g = des.compile();
    ReplayScratch scratch;
    const std::vector<Seconds> wrong(g->numTasks() + 1, 1.0);
    EXPECT_THROW(replay(*g, wrong, scratch), PanicError);
}

TEST(GraphTemplate, CompiledTemplateOutlivesBuilder)
{
    std::shared_ptr<const GraphTemplate> g;
    {
        const EventSimulator des = buildDiamond();
        g = des.compile();
    }
    ReplayScratch scratch;
    replay(*g, {}, scratch);
    EXPECT_GT(scratch.makespan(), 0.0);
    EXPECT_EQ(g->taskLabel(0), "src");
}

TEST(GraphTemplate, ScheduleFromReplayAnswersQueries)
{
    // A Schedule assembled from (template, replay placements) must
    // behave exactly like the one run() returns.
    const EventSimulator des = buildDiamond();
    const Schedule reference = des.run();

    const std::shared_ptr<const GraphTemplate> g = des.compile();
    ReplayScratch scratch;
    replay(*g, {}, scratch);
    const Schedule s(g, scratch.placements());

    EXPECT_EQ(s.makespan(), reference.makespan());
    EXPECT_EQ(s.busyTime(0), reference.busyTime(0));
    EXPECT_EQ(s.timeByTag("comp"), reference.timeByTag("comp"));
    EXPECT_EQ(s.timeByTag("comm"), reference.timeByTag("comm"));
    EXPECT_EQ(s.overlappedTime(0, 1), reference.overlappedTime(0, 1));
    EXPECT_EQ(s.exposedTime(1, 0), reference.exposedTime(1, 0));
    EXPECT_EQ(s.taskLabel(3), "sink");
}

TEST(GraphTemplate, DefaultScheduleIsEmpty)
{
    // Result structs hold a Schedule by value; the default state
    // must be queryable without a graph behind it.
    const Schedule s;
    EXPECT_EQ(s.numTasks(), 0u);
    EXPECT_EQ(s.numResources(), 0u);
    EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
    EXPECT_DOUBLE_EQ(s.timeByTag("anything"), 0.0);
}

TEST(GraphReplay, ConcurrentReplaysShareOneTemplate)
{
    // The thread contract: one immutable template, many threads,
    // each with its own scratch. Every thread must reproduce the
    // serial reference for its own duration vectors. (This suite
    // runs under TSan via the tsan preset filter.)
    EventSimulator des;
    const ResourceId a = des.addResource("a");
    const ResourceId b = des.addResource("b");
    TaskId prev = InvalidTask;
    for (int i = 0; i < 200; ++i) {
        std::vector<TaskId> deps;
        if (prev != InvalidTask)
            deps.push_back(prev);
        prev = des.addTask("t", i % 2 ? "odd" : "even",
                           i % 2 ? b : a, 1.0, deps);
    }
    const std::shared_ptr<const GraphTemplate> g = des.compile();

    auto durationsFor = [&](std::uint64_t seed) {
        Rng rng(seed);
        std::vector<Seconds> d(g->numTasks());
        for (Seconds &x : d)
            x = rng.nextDouble() + 0.01;
        return d;
    };
    auto makespanFor = [&](const std::vector<Seconds> &d) {
        ReplayScratch scratch;
        replay(*g, d, scratch);
        return scratch.makespan();
    };

    constexpr int kThreads = 8;
    constexpr int kReplaysPerThread = 50;
    std::vector<Seconds> reference(kThreads);
    for (int t = 0; t < kThreads; ++t)
        reference[t] =
            makespanFor(durationsFor(static_cast<std::uint64_t>(t)));

    std::vector<int> mismatches(kThreads, 0);
    {
        std::vector<std::jthread> workers;
        workers.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            workers.emplace_back([&, t] {
                const std::vector<Seconds> d =
                    durationsFor(static_cast<std::uint64_t>(t));
                ReplayScratch scratch;
                for (int i = 0; i < kReplaysPerThread; ++i) {
                    replay(*g, d, scratch);
                    if (scratch.makespan() != reference[t])
                        ++mismatches[t];
                }
            });
        }
    }
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(GraphTemplate, ReplayRejectsScratchBoundElsewhere)
{
    // The rebinding contract: a scratch still bound to another
    // template panics instead of silently re-allocating; an explicit
    // bind() is the opt-in for arena reuse.
    const std::shared_ptr<const GraphTemplate> small =
        buildDiamond().compile();
    EventSimulator des;
    const ResourceId r = des.addResource("r");
    TaskId prev = InvalidTask;
    for (int i = 0; i < 10; ++i)
        prev = des.addTask("t", "comp", r, 1.0,
                           prev == InvalidTask
                               ? std::vector<TaskId>{}
                               : std::vector<TaskId>{ prev });
    const std::shared_ptr<const GraphTemplate> big = des.compile();

    ReplayScratch scratch;
    replay(*small, {}, scratch);
    EXPECT_EQ(scratch.boundTemplate(), small.get());
    EXPECT_THROW(replay(*big, {}, scratch), PanicError);
    scratch.bind(*big);
    replay(*big, {}, scratch);
    EXPECT_EQ(scratch.boundTemplate(), big.get());
    EXPECT_DOUBLE_EQ(scratch.makespan(), 10.0);

    BatchScratch batch;
    replayBatch(*small, {}, 2, batch);
    EXPECT_THROW(replayBatch(*big, {}, 2, batch), PanicError);
    batch.bind(*big, 3);
    replayBatch(*big, {}, 3, batch);
    EXPECT_DOUBLE_EQ(batch.makespan(2), 10.0);
}

/**
 * A pseudo-random layered DAG over a few resources: tasks get
 * random durations, random dependencies on earlier tasks, and a
 * random resource — the adversarial shape for the batched walk
 * (irregular fan-in, interleaved FIFO chains).
 */
std::shared_ptr<const GraphTemplate>
buildRandomDag(std::uint64_t seed, int num_tasks, int num_resources)
{
    Rng rng(seed);
    EventSimulator des;
    std::vector<ResourceId> resources;
    for (int r = 0; r < num_resources; ++r)
        resources.push_back(
            des.addResource("r" + std::to_string(r)));
    for (int i = 0; i < num_tasks; ++i) {
        std::vector<TaskId> deps;
        const int fan_in =
            static_cast<int>(rng.nextU64() % 3); // 0..2 deps
        for (int d = 0; d < fan_in && i > 0; ++d) {
            const auto dep = static_cast<TaskId>(
                rng.nextU64() % static_cast<std::uint64_t>(i));
            deps.push_back(dep);
        }
        const ResourceId res =
            resources[rng.nextU64() %
                      static_cast<std::uint64_t>(num_resources)];
        des.addTask("t", "comp", res, rng.nextDouble() + 0.1, deps);
    }
    return des.compile();
}

TEST(BatchReplay, LaneWidthsMatchSequentialBitForBit)
{
    // Property test across the lane widths the dispatcher treats
    // differently: 1 (degenerate), 4 (unrolled ISA clone), 33 (odd,
    // generic loop).
    const std::shared_ptr<const GraphTemplate> g =
        buildRandomDag(42, 300, 4);
    const std::size_t n = g->numTasks();

    for (const std::size_t lanes : { 1u, 4u, 33u }) {
        Rng rng(lanes);
        std::vector<Seconds> soa(n * lanes);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t l = 0; l < lanes; ++l)
                soa[i * lanes + l] = rng.nextDouble() + 0.01;

        BatchScratch batch;
        replayBatch(*g, soa, lanes, batch);

        ReplayScratch seq;
        seq.bind(*g);
        std::vector<Seconds> durations(n);
        for (std::size_t l = 0; l < lanes; ++l) {
            for (std::size_t i = 0; i < n; ++i)
                durations[i] = soa[i * lanes + l];
            replay(*g, durations, seq);
            EXPECT_EQ(batch.makespan(l), seq.makespan())
                << "lanes " << lanes << " lane " << l;
            for (std::size_t r = 0; r < g->numResources(); ++r)
                EXPECT_EQ(batch.busyTotal(static_cast<ResourceId>(r),
                                          l),
                          seq.busyTotal(static_cast<ResourceId>(r)))
                    << "lanes " << lanes << " lane " << l
                    << " resource " << r;
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(
                    batch.taskEnd(static_cast<TaskId>(i), l),
                    seq.placements()[i].end)
                    << "lanes " << lanes << " lane " << l << " task "
                    << i;
        }
    }
}

TEST(BatchReplay, EmptyDurationsBroadcastBaseDurations)
{
    const std::shared_ptr<const GraphTemplate> g =
        buildRandomDag(43, 100, 3);
    ReplayScratch seq;
    replay(*g, {}, seq);
    BatchScratch batch;
    replayBatch(*g, {}, 5, batch);
    for (std::size_t l = 0; l < 5; ++l)
        EXPECT_EQ(batch.makespan(l), seq.makespan()) << l;
}

TEST(BatchReplay, ConcurrentBatchedReplaysShareOneTemplate)
{
    // Thread contract for the batched walk: one immutable template,
    // one BatchScratch per thread. (Runs under TSan via the tsan
    // preset filter.)
    const std::shared_ptr<const GraphTemplate> g =
        buildRandomDag(44, 256, 4);
    const std::size_t n = g->numTasks();
    constexpr std::size_t kLanes = 8;

    auto soaFor = [&](std::uint64_t seed) {
        Rng rng(seed);
        std::vector<Seconds> soa(n * kLanes);
        for (Seconds &x : soa)
            x = rng.nextDouble() + 0.01;
        return soa;
    };

    constexpr int kThreads = 8;
    std::vector<std::vector<Seconds>> reference(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        BatchScratch batch;
        replayBatch(*g, soaFor(static_cast<std::uint64_t>(t)),
                    kLanes, batch);
        reference[t].resize(kLanes);
        for (std::size_t l = 0; l < kLanes; ++l)
            reference[t][l] = batch.makespan(l);
    }

    std::vector<int> mismatches(kThreads, 0);
    {
        std::vector<std::jthread> workers;
        workers.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            workers.emplace_back([&, t] {
                const std::vector<Seconds> soa =
                    soaFor(static_cast<std::uint64_t>(t));
                BatchScratch batch;
                for (int i = 0; i < 50; ++i) {
                    replayBatch(*g, soa, kLanes, batch);
                    for (std::size_t l = 0; l < kLanes; ++l)
                        if (batch.makespan(l) != reference[t][l])
                            ++mismatches[t];
                }
            });
        }
    }
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

} // namespace
} // namespace twocs::sim
