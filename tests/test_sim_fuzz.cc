/**
 * @file
 * Randomized (seeded, reproducible) stress tests of the discrete-
 * event engine: generate random task graphs and check the schedule
 * invariants that must hold for ANY input — per-resource serialization,
 * dependency ordering, conservation of busy time, and makespan bounds
 * — and hold the stream-order-pruned replay to a walk over every
 * declared edge.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/engine.hh"
#include "util/rng.hh"

namespace twocs::sim {
namespace {

struct FuzzCase
{
    std::uint64_t seed;
    int resources;
    int tasks;
};

class EngineFuzz : public ::testing::TestWithParam<FuzzCase>
{
};

TEST_P(EngineFuzz, ScheduleInvariantsHold)
{
    const FuzzCase fc = GetParam();
    Rng rng(fc.seed);

    EventSimulator des;
    for (int r = 0; r < fc.resources; ++r)
        des.addResource("r" + std::to_string(r));

    double total_duration = 0.0;
    for (int i = 0; i < fc.tasks; ++i) {
        const ResourceId res =
            static_cast<ResourceId>(rng.nextU64() % fc.resources);
        const double dur = rng.nextDouble() * 2.0;
        std::vector<TaskId> deps;
        // Up to three random backward dependencies.
        const int ndeps =
            i == 0 ? 0 : static_cast<int>(rng.nextU64() % 4);
        for (int d = 0; d < ndeps; ++d) {
            deps.push_back(
                static_cast<TaskId>(rng.nextU64() % i));
        }
        des.addTask("t" + std::to_string(i), i % 2 ? "odd" : "even",
                    res, dur, deps);
        total_duration += dur;
    }

    const Schedule s = des.run();
    const GraphTemplate &graph = s.graph();
    const auto &placed = s.placements();

    // 1. Every task runs for exactly its duration, non-negatively.
    for (std::size_t i = 0; i < placed.size(); ++i) {
        const auto id = static_cast<TaskId>(i);
        EXPECT_NEAR(placed[i].end - placed[i].start,
                    graph.baseDuration(id), 1e-12);
        EXPECT_GE(placed[i].start, 0.0);
    }

    // 2. Dependencies: no task starts before its deps end.
    for (std::size_t i = 0; i < placed.size(); ++i) {
        for (TaskId dep : graph.deps(static_cast<TaskId>(i)))
            EXPECT_GE(placed[i].start, placed[dep].end - 1e-12);
    }

    // 3. Per-resource FIFO serialization: each task starts no
    //    earlier than the previous task on its resource ended
    //    (transitively covers all pairs).
    std::vector<TaskId> last_on(fc.resources, InvalidTask);
    for (std::size_t i = 0; i < placed.size(); ++i) {
        const ResourceId r =
            graph.taskResource(static_cast<TaskId>(i));
        if (last_on[r] != InvalidTask) {
            EXPECT_GE(placed[i].start,
                      placed[last_on[r]].end - 1e-12)
                << "task " << i;
        }
        last_on[r] = static_cast<TaskId>(i);
    }

    // 4. Conservation: busy time sums to total duration.
    double busy = 0.0;
    for (int r = 0; r < fc.resources; ++r)
        busy += s.busyTime(r);
    EXPECT_NEAR(busy, total_duration, 1e-9);
    EXPECT_NEAR(s.timeByTag("odd") + s.timeByTag("even"),
                total_duration, 1e-9);

    // 5. Makespan bounds: at least the longest resource, at most the
    //    serial sum.
    for (int r = 0; r < fc.resources; ++r)
        EXPECT_GE(s.makespan(), s.busyTime(r) - 1e-12);
    EXPECT_LE(s.makespan(), total_duration + 1e-9);

    // 6. Overlap accounting is symmetric and bounded.
    if (fc.resources >= 2) {
        const Seconds o01 = s.overlappedTime(0, 1);
        EXPECT_NEAR(o01, s.overlappedTime(1, 0), 1e-12);
        EXPECT_LE(o01, std::min(s.busyTime(0), s.busyTime(1)) + 1e-12);
        EXPECT_NEAR(s.exposedTime(0, 1), s.busyTime(0) - o01, 1e-9);
    }
}

/** A graph as declared to the builder, every edge kept. */
struct DeclaredGraph
{
    int resources = 0;
    std::vector<ResourceId> resource;
    std::vector<Seconds> duration;
    std::vector<std::vector<TaskId>> deps;
};

/** The replay recurrence walked over every declared edge: the
 *  reference the stream-order-pruned CSR must match bit for bit. */
struct EveryEdgeWalk
{
    std::vector<ScheduledTask> placed;
    std::vector<Seconds> busy;
    Seconds makespan = 0.0;
};

EveryEdgeWalk
walkEveryEdge(const DeclaredGraph &g, const std::vector<Seconds> &dur)
{
    EveryEdgeWalk w;
    w.placed.resize(dur.size());
    w.busy.assign(g.resources, 0.0);
    std::vector<Seconds> resource_free(g.resources, 0.0);
    for (std::size_t i = 0; i < dur.size(); ++i) {
        const ResourceId r = g.resource[i];
        Seconds ready = resource_free[r];
        for (const TaskId dep : g.deps[i])
            ready = std::max(ready, w.placed[dep].end);
        const Seconds end = ready + dur[i];
        w.placed[i] = { static_cast<TaskId>(i), ready, end };
        resource_free[r] = end;
        w.busy[r] += end - ready;
        w.makespan = std::max(w.makespan, end);
    }
    return w;
}

void
expectSameBits(const EveryEdgeWalk &ref, const ReplayScratch &scratch,
               int resources)
{
    EXPECT_EQ(scratch.makespan(), ref.makespan);
    ASSERT_EQ(scratch.placements().size(), ref.placed.size());
    for (std::size_t i = 0; i < ref.placed.size(); ++i) {
        EXPECT_EQ(scratch.placements()[i].start, ref.placed[i].start)
            << "task " << i;
        EXPECT_EQ(scratch.placements()[i].end, ref.placed[i].end)
            << "task " << i;
    }
    for (int r = 0; r < resources; ++r)
        EXPECT_EQ(scratch.busyTotal(r), ref.busy[r]) << "resource " << r;
}

TEST_P(EngineFuzz, PrunedReplayMatchesEveryEdgeWalk)
{
    // The builder drops each dependency on a task's stream
    // predecessor. Random graphs that declare such edges on purpose,
    // repeat dependencies and include zero durations must replay
    // exactly as the walk over every declared edge, for the base
    // durations and for a perturbed vector.
    const FuzzCase fc = GetParam();
    Rng rng(fc.seed ^ 0x5eedULL);

    DeclaredGraph g;
    g.resources = fc.resources;
    EventSimulator des;
    for (int r = 0; r < fc.resources; ++r)
        des.addResource("r" + std::to_string(r));

    std::vector<TaskId> last_on(fc.resources, InvalidTask);
    std::size_t kept_edges = 0;
    for (int i = 0; i < fc.tasks; ++i) {
        const ResourceId res =
            static_cast<ResourceId>(rng.nextU64() % fc.resources);
        const Seconds dur =
            rng.nextU64() % 8 == 0 ? 0.0 : rng.nextDouble() * 2.0;
        std::vector<TaskId> deps;
        const int ndeps =
            i == 0 ? 0 : static_cast<int>(rng.nextU64() % 4);
        for (int d = 0; d < ndeps; ++d)
            deps.push_back(static_cast<TaskId>(rng.nextU64() % i));
        if (last_on[res] != InvalidTask && rng.nextU64() % 2 == 0) {
            // The stream predecessor, declared explicitly, at a
            // random position among the other deps.
            deps.insert(deps.begin() +
                            static_cast<std::ptrdiff_t>(
                                rng.nextU64() % (deps.size() + 1)),
                        last_on[res]);
        }
        if (!deps.empty() && rng.nextU64() % 4 == 0)
            deps.push_back(deps[rng.nextU64() % deps.size()]);
        for (const TaskId dep : deps)
            kept_edges += dep != last_on[res] ? 1 : 0;

        des.addTask("t" + std::to_string(i), "fuzz", res, dur, deps);
        g.resource.push_back(res);
        g.duration.push_back(dur);
        g.deps.push_back(deps);
        last_on[res] = static_cast<TaskId>(i);
    }

    const std::shared_ptr<const GraphTemplate> tmpl = des.compile();
    // Exactly the stream-predecessor edges are gone: a pruned
    // cross-stream (or older same-stream) edge fails here even where
    // it does not bind the schedule.
    EXPECT_EQ(tmpl->numEdges(), kept_edges);

    ReplayScratch scratch;
    replay(*tmpl, {}, scratch);
    expectSameBits(walkEveryEdge(g, g.duration), scratch, fc.resources);

    std::vector<Seconds> perturbed(g.duration);
    for (Seconds &d : perturbed) {
        d = rng.nextU64() % 8 == 0 ? 0.0
                                   : d * (0.5 + rng.nextDouble());
    }
    replay(*tmpl, perturbed, scratch);
    expectSameBits(walkEveryEdge(g, perturbed), scratch, fc.resources);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, EngineFuzz,
    ::testing::Values(FuzzCase{ 1, 2, 50 }, FuzzCase{ 2, 2, 500 },
                      FuzzCase{ 3, 3, 200 }, FuzzCase{ 4, 4, 1000 },
                      FuzzCase{ 5, 1, 100 }, FuzzCase{ 99, 5, 2000 },
                      FuzzCase{ 123, 2, 3000 },
                      FuzzCase{ 7777, 8, 4000 }));

} // namespace
} // namespace twocs::sim
