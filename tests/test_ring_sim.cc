/**
 * @file
 * Tests for the explicit multi-device ring all-reduce simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "comm/ring_sim.hh"
#include "hw/catalog.hh"
#include "hw/efficiency.hh"
#include "sim/graph.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace twocs::comm {
namespace {

hw::Topology
node(int p)
{
    return hw::Topology::singleNode(hw::mi210(), p);
}

TEST(RingSim, UniformArrivalMatchesClosedForm)
{
    // With synchronized arrivals and a large payload, the explicit
    // ring and the CollectiveModel closed form must agree closely.
    const int p = 8;
    const Bytes payload = 1e9;
    const std::vector<Seconds> arrivals(p, 0.0);
    const RingSimResult sim =
        simulateRingCollective(node(p), payload, arrivals);
    const Seconds closed =
        CollectiveModel(node(p)).cost({ comm::CollectiveKind::AllReduce, payload, p }).total;
    EXPECT_NEAR(sim.finishTime / closed, 1.0, 0.10);
    EXPECT_NEAR(sim.maxStallTime, 0.0, 1e-9);
}

TEST(RingSim, AllDevicesFinishTogetherWhenUniform)
{
    const std::vector<Seconds> arrivals(6, 1e-3);
    const RingSimResult r =
        simulateRingCollective(node(6), 64e6, arrivals);
    for (Seconds f : r.deviceFinish)
        EXPECT_NEAR(f, r.finishTime, 1e-12);
}

TEST(RingSim, StragglerDelaysEveryone)
{
    std::vector<Seconds> arrivals(8, 1e-3);
    const RingSimResult base =
        simulateRingCollective(node(8), 64e6, arrivals);
    arrivals[3] = 5e-3; // one straggler
    const RingSimResult slow =
        simulateRingCollective(node(8), 64e6, arrivals);

    // Everyone's finish moves out by roughly the straggler's delay.
    EXPECT_NEAR(slow.finishTime - base.finishTime, 4e-3, 1e-3);
    EXPECT_GT(slow.maxStallTime, 3e-3);
    for (Seconds f : slow.deviceFinish)
        EXPECT_GT(f, base.finishTime);
}

TEST(RingSim, CollectiveTimeExcludesArrivalSkew)
{
    std::vector<Seconds> arrivals = { 0.0, 1e-3, 2e-3, 8e-3 };
    const RingSimResult r =
        simulateRingCollective(node(4), 64e6, arrivals);
    const RingSimResult uniform = simulateRingCollective(node(4), 64e6, std::vector<Seconds>(4, 8e-3));
    // Once the last device arrives, the remaining work is at most a
    // full collective (pipelining may have absorbed earlier steps).
    EXPECT_LE(r.collectiveTime, uniform.collectiveTime * 1.001);
    EXPECT_GT(r.collectiveTime, 0.0);
}

TEST(RingSim, MoreDevicesMoreSteps)
{
    const Seconds t4 =
        simulateRingCollective(node(4), 64e6, std::vector<Seconds>(4, 0.0))
            .finishTime;
    const Seconds t16 =
        simulateRingCollective(node(16), 64e6, std::vector<Seconds>(16, 0.0))
            .finishTime;
    EXPECT_GT(t16, t4);
}

TEST(RingSim, Validation)
{
    EXPECT_THROW(simulateRingCollective(node(4), 64e6, { 0.0 }),
                 FatalError);
    EXPECT_THROW(simulateRingCollective(node(4), 0.0, std::vector<Seconds>(4, 0.0)),
                 FatalError);
    EXPECT_THROW(simulateRingCollective(node(4), 64e6, { 0.0, 0.0, -1.0, 0.0 }),
                 FatalError);
}

TEST(RingSim, ScheduleIsExportable)
{
    const RingSimResult r = simulateRingCollective(node(4), 64e6, std::vector<Seconds>(4, 0.0));
    EXPECT_EQ(r.schedule.numResources(), 4u);
    EXPECT_EQ(r.schedule.numTasks(), 4u + 4u * 6u);
}

/**
 * The independent oracle for the compiled ring: build the stepped
 * ring from scratch on sim::EventSimulator with the real durations
 * baked in (arrival task per device, then step s on device d after
 * its own and its upstream neighbour's step s - 1), optionally
 * rewrite that build with `passes`, and derive the result fields
 * from the resulting schedule.
 */
RingSimResult
oracleRing(const hw::Topology &topology, Bytes payload,
           const std::vector<Seconds> &arrivals,
           const sim::PassPipeline *passes = nullptr)
{
    const int p = static_cast<int>(arrivals.size());
    const int steps = 2 * (p - 1);
    const Seconds step_time = ringStepTime(topology, payload, p);
    sim::EventSimulator des;
    std::vector<sim::ResourceId> dev(p);
    std::vector<sim::TaskId> prev(p);
    for (int d = 0; d < p; ++d) {
        dev[d] = des.addResource("dev" + std::to_string(d));
        prev[d] = des.addTask("arrive", "arrive", dev[d], arrivals[d]);
    }
    for (int s = 0; s < steps; ++s) {
        std::vector<sim::TaskId> cur(p);
        for (int d = 0; d < p; ++d) {
            cur[d] = des.addTask("step" + std::to_string(s),
                                 "ring_step", dev[d], step_time,
                                 { prev[d], prev[(d + p - 1) % p] });
        }
        prev = std::move(cur);
    }

    RingSimResult r;
    std::vector<sim::TaskId> finals = prev;
    if (passes != nullptr) {
        const sim::GraphBuilder::Compiled compiled =
            passes->rewrite(*des.compile(), finals);
        finals = compiled.terminals;
        sim::ReplayScratch scratch;
        sim::replay(*compiled.graph, {}, scratch);
        r.schedule = sim::Schedule(compiled.graph, scratch.placements());
    } else {
        r.schedule = des.run();
    }
    Seconds latest = 0.0, earliest = 1e300;
    for (int d = 0; d < p; ++d) {
        r.deviceFinish.push_back(r.schedule.placement(finals[d]).end);
        r.finishTime = std::max(r.finishTime, r.deviceFinish[d]);
        latest = std::max(latest, arrivals[d]);
        earliest = std::min(earliest, arrivals[d]);
    }
    r.collectiveTime = r.finishTime - latest;
    r.maxStallTime =
        std::max(0.0, r.finishTime - earliest - steps * step_time);
    return r;
}

void
expectIdentical(const RingSimResult &a, const RingSimResult &b)
{
    EXPECT_EQ(a.finishTime, b.finishTime);
    EXPECT_EQ(a.collectiveTime, b.collectiveTime);
    EXPECT_EQ(a.maxStallTime, b.maxStallTime);
    ASSERT_EQ(a.deviceFinish.size(), b.deviceFinish.size());
    for (std::size_t d = 0; d < a.deviceFinish.size(); ++d)
        EXPECT_EQ(a.deviceFinish[d], b.deviceFinish[d]) << d;
    ASSERT_EQ(a.schedule.numTasks(), b.schedule.numTasks());
    for (std::size_t i = 0; i < a.schedule.numTasks(); ++i) {
        const auto id = static_cast<sim::TaskId>(i);
        EXPECT_EQ(a.schedule.placement(id).start,
                  b.schedule.placement(id).start)
            << i;
        EXPECT_EQ(a.schedule.placement(id).end,
                  b.schedule.placement(id).end)
            << i;
    }
}

TEST(RingReplay, MatchesRebuildBitForBit)
{
    // The compiled-template replay must agree with a from-scratch
    // graph build on every exported number — not approximately,
    // bit for bit (identical recurrence, identical FP order).
    const std::vector<Seconds> skewed = { 0.0, 1e-3, 2e-3, 8e-3,
                                          5e-4, 0.0, 3e-3, 1e-4 };
    expectIdentical(simulateRingCollective(node(8), 64e6, skewed),
                    oracleRing(node(8), 64e6, skewed));
}

TEST(RingReplay, CachedTemplateReplaysAreIndependent)
{
    // Repeated calls for the same P reuse one thread-local template
    // and scratch; each call's result must depend only on its own
    // arrival vector, and the shared interner must not grow.
    const std::vector<Seconds> a = { 0.0, 2e-3, 0.0, 1e-3 };
    const std::vector<Seconds> b = { 4e-3, 0.0, 5e-4, 0.0 };
    const RingSimResult first =
        simulateRingCollective(node(4), 64e6, a);
    const std::size_t vocabulary =
        first.schedule.interner().size();
    simulateRingCollective(node(4), 64e6, b);
    const RingSimResult again =
        simulateRingCollective(node(4), 64e6, a);
    expectIdentical(first, again);
    EXPECT_EQ(again.schedule.interner().size(), vocabulary);
}

TEST(RingReplay, DistinctDeviceCountsGetDistinctTemplates)
{
    for (int p : { 2, 3, 4, 8 }) {
        const RingSimResult r = simulateRingCollective(node(p), 64e6, std::vector<Seconds>(p, 0.0));
        EXPECT_EQ(r.schedule.numResources(),
                  static_cast<std::size_t>(p));
        EXPECT_EQ(r.schedule.numTasks(),
                  static_cast<std::size_t>(p) +
                      static_cast<std::size_t>(p) * 2 *
                          (static_cast<std::size_t>(p) - 1));
    }
}

TEST(RingSim, StepTimeFollowsPerRingShare)
{
    // Pinned semantics: both the wire term and the efficiency
    // lookup see the per-ring share of the per-device chunk — what
    // one physical link actually carries per step.
    const int p = 8;
    const Bytes payload = 64e6;
    const hw::Topology topo = node(p);
    ASSERT_GT(topo.parallelRings(), 1); // multi-ring fabric
    const Bytes per_ring =
        payload / p / topo.parallelRings();
    const Seconds expected =
        per_ring /
            (topo.intraLink().bandwidth *
             hw::linkEfficiency(per_ring, {})) +
        topo.intraLink().latency;
    EXPECT_DOUBLE_EQ(ringStepTime(topo, payload, p), expected);
}

TEST(RingSim, StepTimeTinyPayloadFloorsOnlyTheEfficiencyLookup)
{
    // A sub-byte per-ring share: the efficiency lookup floors its
    // argument at one byte (keeping the saturation curve defined),
    // but the wire term must use the true share — the old clamp on
    // the wire term overstated tiny payloads by orders of magnitude.
    const int p = 4;
    const hw::Topology topo = node(p);
    const Bytes payload = 1.0; // 1 byte across 4 devices and rings
    const Bytes per_ring = payload / p / topo.parallelRings();
    ASSERT_LT(per_ring, 1.0);
    const Seconds expected =
        per_ring /
            (topo.intraLink().bandwidth *
             hw::linkEfficiency(1.0, {})) +
        topo.intraLink().latency;
    const Seconds got = ringStepTime(topo, payload, p);
    EXPECT_DOUBLE_EQ(got, expected);
    EXPECT_GT(got, topo.intraLink().latency);
    // The historical clamp fed a full byte to the wire term too,
    // overstating sub-byte steps several-fold.
    const Seconds clamped =
        1.0 /
            (topo.intraLink().bandwidth *
             hw::linkEfficiency(1.0, {})) +
        topo.intraLink().latency;
    EXPECT_LT(got, clamped);
}

TEST(RingSim, StepTimeValidation)
{
    EXPECT_THROW(ringStepTime(node(4), 64e6, 1), FatalError);
    EXPECT_THROW(ringStepTime(node(4), 0.0, 4), FatalError);
}

TEST(RingReplay, StepCountsForOneDeviceCountDoNotCollide)
{
    // Regression: the compiled-ring cache used to key on the device
    // count alone, so the first step count requested for a given P
    // was silently replayed for every later request — a
    // reduce-scatter after an all-reduce (or vice versa) on the
    // same thread got the wrong graph. Both orders must yield the
    // right template every time.
    const int p = 4;
    const std::vector<Seconds> arrivals(p, 0.0);
    const auto tasks = [&](RingCollective collective) {
        RingSimOptions options;
        options.collective = collective;
        return simulateRingCollective(node(p), 64e6, arrivals,
                                      options);
    };
    const std::size_t up = p;
    const RingSimResult rs1 = tasks(RingCollective::ReduceScatter);
    EXPECT_EQ(rs1.schedule.numTasks(), up + up * (up - 1));
    const RingSimResult ar = tasks(RingCollective::AllReduce);
    EXPECT_EQ(ar.schedule.numTasks(), up + up * 2 * (up - 1));
    const RingSimResult rs2 = tasks(RingCollective::ReduceScatter);
    EXPECT_EQ(rs2.schedule.numTasks(), up + up * (up - 1));
    expectIdentical(rs1, rs2);
    // Half the steps, so the reduce-scatter finishes strictly
    // earlier and in about half the collective time.
    EXPECT_LT(rs1.finishTime, ar.finishTime);
    EXPECT_NEAR(rs1.collectiveTime / ar.collectiveTime, 0.5, 0.05);
}

TEST(RingReplay, PassRewrittenTemplateMatchesRebuild)
{
    // Tiling every ring step into two chained half-steps preserves
    // each device's finish time, and the pass-rewritten compiled
    // template must agree with the pass-rewritten from-scratch
    // build bit for bit.
    const int p = 4;
    const std::vector<Seconds> skewed = { 0.0, 2e-3, 5e-4, 1e-3 };
    const sim::PassPipeline tile =
        sim::PassPipeline::parse("tile_gemm=2:ring_step");
    RingSimOptions replayOpts;
    replayOpts.passes = &tile;
    const RingSimResult rewritten =
        simulateRingCollective(node(p), 64e6, skewed, replayOpts);
    expectIdentical(rewritten, oracleRing(node(p), 64e6, skewed, &tile));

    // Twice the step tasks; same device finish times as the
    // untouched reference (t/2 + t/2 == t exactly, starts shift by
    // at most FP association).
    const RingSimResult reference =
        simulateRingCollective(node(p), 64e6, skewed);
    EXPECT_EQ(rewritten.schedule.numTasks(),
              static_cast<std::size_t>(p) +
                  static_cast<std::size_t>(p) * 2 * 2 * (p - 1));
    ASSERT_EQ(rewritten.deviceFinish.size(),
              reference.deviceFinish.size());
    for (std::size_t d = 0; d < reference.deviceFinish.size(); ++d)
        EXPECT_NEAR(rewritten.deviceFinish[d],
                    reference.deviceFinish[d], 1e-12)
            << d;
}

} // namespace
} // namespace twocs::comm
