#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/case_study.hh"
#include "sim/engine.hh"
#include "util/logging.hh"

namespace twocs::sim {
namespace {

TEST(Engine, SingleResourceRunsFifo)
{
    EventSimulator des;
    const ResourceId r = des.addResource("stream");
    des.addTask("a", "x", r, 1.0);
    des.addTask("b", "x", r, 2.0);
    des.addTask("c", "y", r, 3.0);
    const Schedule s = des.run();
    EXPECT_DOUBLE_EQ(s.makespan(), 6.0);
    EXPECT_DOUBLE_EQ(s.placement(0).start, 0.0);
    EXPECT_DOUBLE_EQ(s.placement(1).start, 1.0);
    EXPECT_DOUBLE_EQ(s.placement(2).start, 3.0);
    EXPECT_DOUBLE_EQ(s.busyTime(r), 6.0);
    EXPECT_DOUBLE_EQ(s.timeByTag("x"), 3.0);
    EXPECT_DOUBLE_EQ(s.timeByTag("y"), 3.0);
}

TEST(Engine, IndependentResourcesRunInParallel)
{
    EventSimulator des;
    const ResourceId a = des.addResource("a");
    const ResourceId b = des.addResource("b");
    des.addTask("a0", "", a, 5.0);
    des.addTask("b0", "", b, 3.0);
    const Schedule s = des.run();
    EXPECT_DOUBLE_EQ(s.makespan(), 5.0);
    EXPECT_DOUBLE_EQ(s.overlappedTime(a, b), 3.0);
    EXPECT_DOUBLE_EQ(s.exposedTime(a, b), 2.0);
    EXPECT_DOUBLE_EQ(s.exposedTime(b, a), 0.0);
}

TEST(Engine, DependencyDelaysStart)
{
    EventSimulator des;
    const ResourceId a = des.addResource("a");
    const ResourceId b = des.addResource("b");
    const TaskId t0 = des.addTask("produce", "", a, 4.0);
    des.addTask("consume", "", b, 1.0, { t0 });
    const Schedule s = des.run();
    EXPECT_DOUBLE_EQ(s.placement(1).start, 4.0);
    EXPECT_DOUBLE_EQ(s.makespan(), 5.0);
}

TEST(Engine, CrossStreamSerializationPattern)
{
    // compute -> comm -> compute, like a TP all-reduce.
    EventSimulator des;
    const ResourceId comp = des.addResource("compute");
    const ResourceId comm = des.addResource("comm");
    const TaskId c0 = des.addTask("gemm0", "comp", comp, 2.0);
    const TaskId ar = des.addTask("ar", "comm", comm, 3.0, { c0 });
    des.addTask("gemm1", "comp", comp, 2.0, { ar });
    const Schedule s = des.run();
    EXPECT_DOUBLE_EQ(s.makespan(), 7.0);
    // The all-reduce is fully exposed: no compute runs during it.
    EXPECT_DOUBLE_EQ(s.exposedTime(comm, comp), 3.0);
    EXPECT_DOUBLE_EQ(s.overlappedTime(comm, comp), 0.0);
}

TEST(Engine, OverlappedCommHiddenByCompute)
{
    // compute keeps running while an async all-reduce proceeds.
    EventSimulator des;
    const ResourceId comp = des.addResource("compute");
    const ResourceId comm = des.addResource("comm");
    const TaskId wg = des.addTask("wg", "comp", comp, 1.0);
    des.addTask("dp_ar", "comm", comm, 2.0, { wg });
    des.addTask("more_compute", "comp", comp, 5.0);
    const Schedule s = des.run();
    EXPECT_DOUBLE_EQ(s.makespan(), 6.0);
    EXPECT_DOUBLE_EQ(s.overlappedTime(comm, comp), 2.0);
    EXPECT_DOUBLE_EQ(s.exposedTime(comm, comp), 0.0);
}

TEST(Engine, ExposedTimeWithGaps)
{
    EventSimulator des;
    const ResourceId a = des.addResource("a");
    const ResourceId b = des.addResource("b");
    const TaskId a0 = des.addTask("a0", "", a, 1.0);
    // b waits for a0, then runs 4s while a runs only 2s more.
    des.addTask("b0", "", b, 4.0, { a0 });
    des.addTask("a1", "", a, 2.0);
    const Schedule s = des.run();
    // a busy [0,3), b busy [1,5): overlap [1,3) = 2, exposed b = 2.
    EXPECT_DOUBLE_EQ(s.overlappedTime(a, b), 2.0);
    EXPECT_DOUBLE_EQ(s.exposedTime(b, a), 2.0);
}

TEST(Engine, ZeroDurationTasksAllowed)
{
    EventSimulator des;
    const ResourceId r = des.addResource("r");
    des.addTask("marker", "", r, 0.0);
    des.addTask("work", "", r, 1.0);
    const Schedule s = des.run();
    EXPECT_DOUBLE_EQ(s.makespan(), 1.0);
}

TEST(Engine, RejectsUnknownResource)
{
    EventSimulator des;
    EXPECT_THROW(des.addTask("t", "", 0, 1.0), FatalError);
}

TEST(Engine, RejectsForwardDependency)
{
    EventSimulator des;
    const ResourceId r = des.addResource("r");
    EXPECT_THROW(des.addTask("t", "", r, 1.0, { 5 }), FatalError);
}

TEST(Engine, RejectsNegativeDuration)
{
    EventSimulator des;
    const ResourceId r = des.addResource("r");
    EXPECT_THROW(des.addTask("t", "", r, -1.0), FatalError);
}

TEST(Engine, EmptyScheduleIsValid)
{
    EventSimulator des;
    des.addResource("r");
    const Schedule s = des.run();
    EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
}

TEST(Engine, EmptyScheduleTagAndOverlapQueries)
{
    EventSimulator des;
    const ResourceId a = des.addResource("a");
    const ResourceId b = des.addResource("b");
    const Schedule s = des.run();
    EXPECT_DOUBLE_EQ(s.timeByTag("comm"), 0.0);
    EXPECT_DOUBLE_EQ(s.timeByTag(""), 0.0);
    EXPECT_DOUBLE_EQ(s.busyTime(a), 0.0);
    EXPECT_DOUBLE_EQ(s.overlappedTime(a, b), 0.0);
    EXPECT_DOUBLE_EQ(s.exposedTime(a, b), 0.0);
}

TEST(Engine, OverlapAgainstNeverBusyResource)
{
    // Resource b is registered but never receives a task: it must
    // act as "always idle", not as an error or as infinite overlap.
    EventSimulator des;
    const ResourceId a = des.addResource("a");
    const ResourceId b = des.addResource("b");
    des.addTask("work", "comp", a, 4.0);
    const Schedule s = des.run();
    EXPECT_DOUBLE_EQ(s.busyTime(b), 0.0);
    EXPECT_DOUBLE_EQ(s.overlappedTime(a, b), 0.0);
    EXPECT_DOUBLE_EQ(s.overlappedTime(b, a), 0.0);
    EXPECT_DOUBLE_EQ(s.exposedTime(a, b), 4.0);
    EXPECT_DOUBLE_EQ(s.exposedTime(b, a), 0.0);
    EXPECT_DOUBLE_EQ(s.timeByTag("comp"), 4.0);
    EXPECT_DOUBLE_EQ(s.timeByTag("nope"), 0.0);
}

TEST(Engine, ZeroDurationTaskAccounting)
{
    EventSimulator des;
    const ResourceId a = des.addResource("a");
    const ResourceId b = des.addResource("b");
    const TaskId marker = des.addTask("marker", "sync", a, 0.0);
    des.addTask("work", "comp", a, 2.0, { marker });
    des.addTask("other", "comp", b, 1.0, { marker });
    const Schedule s = des.run();
    // Zero-duration tasks place at a definite instant and contribute
    // nothing to busy, tag, or overlap accounting.
    EXPECT_DOUBLE_EQ(s.placement(marker).start, 0.0);
    EXPECT_DOUBLE_EQ(s.placement(marker).end, 0.0);
    EXPECT_DOUBLE_EQ(s.timeByTag("sync"), 0.0);
    EXPECT_DOUBLE_EQ(s.busyTime(a), 2.0);
    EXPECT_DOUBLE_EQ(s.makespan(), 2.0);
    EXPECT_DOUBLE_EQ(s.overlappedTime(a, b), 1.0);
}

TEST(Engine, OnlyZeroDurationTasks)
{
    EventSimulator des;
    const ResourceId r = des.addResource("r");
    const TaskId t0 = des.addTask("m0", "sync", r, 0.0);
    des.addTask("m1", "sync", r, 0.0, { t0 });
    const Schedule s = des.run();
    EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
    EXPECT_DOUBLE_EQ(s.busyTime(r), 0.0);
    EXPECT_DOUBLE_EQ(s.timeByTag("sync"), 0.0);
}

// --- interning equivalence against a string-keyed baseline ---

/** The pre-interning reference: recompute every aggregate straight
 *  from the placements with string keys and per-call interval
 *  rebuilds, exactly as Schedule used to. */
struct StringKeyedBaseline
{
    std::map<std::string, double> tagTotals;
    std::vector<std::vector<std::pair<double, double>>> busy;

    explicit StringKeyedBaseline(const Schedule &s)
        : busy(s.numResources())
    {
        const auto &placed = s.placements();
        for (std::size_t i = 0; i < placed.size(); ++i) {
            const auto id = static_cast<TaskId>(i);
            const double dur = placed[i].end - placed[i].start;
            tagTotals[std::string(s.taskTag(id))] += dur;
            if (dur > 0.0)
                busy[s.taskResource(id)].emplace_back(placed[i].start,
                                                      placed[i].end);
        }
        for (auto &ivals : busy) {
            std::sort(ivals.begin(), ivals.end());
            std::vector<std::pair<double, double>> merged;
            for (const auto &iv : ivals) {
                if (!merged.empty() &&
                    iv.first <= merged.back().second) {
                    merged.back().second =
                        std::max(merged.back().second, iv.second);
                } else {
                    merged.push_back(iv);
                }
            }
            ivals = std::move(merged);
        }
    }

    double overlapped(ResourceId a, ResourceId b) const
    {
        double total = 0.0;
        std::size_t i = 0, j = 0;
        const auto &ba = busy[static_cast<std::size_t>(a)];
        const auto &bb = busy[static_cast<std::size_t>(b)];
        while (i < ba.size() && j < bb.size()) {
            const double lo = std::max(ba[i].first, bb[j].first);
            const double hi = std::min(ba[i].second, bb[j].second);
            if (hi > lo)
                total += hi - lo;
            if (ba[i].second < bb[j].second)
                ++i;
            else
                ++j;
        }
        return total;
    }

    double exposed(ResourceId target, ResourceId other) const
    {
        double busy_total = 0.0;
        for (const auto &iv : busy[static_cast<std::size_t>(target)])
            busy_total += iv.second - iv.first;
        return busy_total - overlapped(target, other);
    }
};

TEST(EngineInterning, CaseStudyQueriesMatchStringKeyedBaseline)
{
    // The Figure 14 case-study graph is a rich real task graph: two
    // streams, three tags (compute, tp_ar, dp_ar), hundreds of
    // tasks. Every
    // interned-id query must agree with the string-keyed recompute.
    const core::CaseStudy study;
    core::CaseStudyConfig cfg;
    cfg.hidden = 8192;
    cfg.seqLen = 2048;
    cfg.tpDegree = 16;
    cfg.dpDegree = 4;
    const Schedule s = study.buildSchedule(cfg);
    ASSERT_GT(s.numTasks(), 100u);
    ASSERT_GE(s.numResources(), 2u);

    const StringKeyedBaseline baseline(s);
    for (const auto &[tag, total] : baseline.tagTotals)
        EXPECT_DOUBLE_EQ(s.timeByTag(tag), total) << tag;
    EXPECT_DOUBLE_EQ(s.timeByTag("no_such_tag"), 0.0);

    for (std::size_t a = 0; a < s.numResources(); ++a) {
        for (std::size_t b = 0; b < s.numResources(); ++b) {
            const auto ra = static_cast<ResourceId>(a);
            const auto rb = static_cast<ResourceId>(b);
            EXPECT_DOUBLE_EQ(s.overlappedTime(ra, rb),
                             baseline.overlapped(ra, rb))
                << a << "x" << b;
            EXPECT_DOUBLE_EQ(s.exposedTime(ra, rb),
                             baseline.exposed(ra, rb))
                << a << "x" << b;
        }
    }
}

TEST(EngineInterning, SteadyStateVocabularyStaysSmall)
{
    // 3000 tasks over a 5-label, 2-tag vocabulary: the intern table
    // holds the vocabulary, not the task count, so once every string
    // has been seen addTask() allocates nothing new.
    EventSimulator des;
    const ResourceId r = des.addResource("stream");
    const char *labels[] = { "qkv", "attn", "mlp_in", "mlp_out",
                             "allreduce" };
    const char *tags[] = { "comp", "tp_ar" };
    for (int i = 0; i < 3000; ++i)
        des.addTask(labels[i % 5], tags[i % 2], r, 1.0);
    const std::size_t steady = des.interner().size();
    EXPECT_LE(steady, 7u);
    for (int i = 0; i < 100; ++i)
        des.addTask(labels[i % 5], tags[i % 2], r, 1.0);
    EXPECT_EQ(des.interner().size(), steady);

    const Schedule s = des.run();
    EXPECT_EQ(s.taskLabel(0), "qkv");
    EXPECT_EQ(s.taskTag(0), "comp");
    // The schedule shares the simulator's table rather than copying.
    EXPECT_EQ(&s.interner(), &des.interner());
}

/** Property: makespan is at least the busy time of every resource
 *  and at most the sum of all durations. */
class MakespanBounds : public ::testing::TestWithParam<int>
{
};

TEST_P(MakespanBounds, HoldsForChainLayouts)
{
    const int n = GetParam();
    EventSimulator des;
    const ResourceId a = des.addResource("a");
    const ResourceId b = des.addResource("b");
    TaskId prev = InvalidTask;
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
        const double d = 0.5 + (i % 3);
        std::vector<TaskId> deps;
        if (prev != InvalidTask && i % 2 == 0)
            deps.push_back(prev);
        prev = des.addTask("t", "", i % 2 ? b : a, d, deps);
        total += d;
    }
    const Schedule s = des.run();
    EXPECT_GE(s.makespan(), s.busyTime(a));
    EXPECT_GE(s.makespan(), s.busyTime(b));
    EXPECT_LE(s.makespan(), total + 1e-9);
    EXPECT_NEAR(s.busyTime(a) + s.busyTime(b), total, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ChainSizes, MakespanBounds,
                         ::testing::Values(1, 2, 5, 16, 64));

} // namespace
} // namespace twocs::sim
