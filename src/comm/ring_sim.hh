/**
 * @file
 * Explicit multi-device ring collective simulation.
 *
 * The CollectiveModel costs a ring all-reduce with a closed form
 * that assumes every participant arrives simultaneously. This module
 * instead builds the actual stepped ring on the discrete-event
 * engine — one communication stream per device, each step waiting on
 * the neighbour's previous step — so it can answer questions the
 * closed form cannot: what happens when participants arrive at
 * different times (stragglers), and how collective synchronization
 * amplifies tail latency across a data-parallel group.
 *
 * The ring's shape depends only on the device count and the step
 * count (2(P-1) for all-reduce, P-1 for the reduce-scatter-only
 * ZeRO-style variant), so each distinct (P, steps) graph is
 * compiled once into the shared sim::GraphCache and replayed per
 * arrival-time vector with zero graph construction. The tests keep
 * an independent from-scratch build of the same ring as the
 * bit-identity oracle. A sim::PassPipeline can rewrite the ring
 * graph (e.g. fusing step chains) before replay; rewritten variants
 * are cached separately per pipeline.
 */

#ifndef TWOCS_COMM_RING_SIM_HH
#define TWOCS_COMM_RING_SIM_HH

#include <memory>
#include <vector>

#include "comm/collectives.hh"
#include "sim/engine.hh"
#include "sim/passes.hh"

namespace twocs::comm {

/** Which ring collective to run (fixes the step count). */
enum class RingCollective
{
    /** Reduce-scatter + all-gather: 2(P-1) steps. */
    AllReduce,
    /** Reduce-scatter only (ZeRO-style sharded state): P-1 steps. */
    ReduceScatter,
};

/** Result of one explicit ring simulation. */
struct RingSimResult
{
    /** When each device finishes the collective. */
    std::vector<Seconds> deviceFinish;
    /** Completion of the whole collective (max over devices). */
    Seconds finishTime = 0.0;
    /** The collective's own duration once everyone arrived
     *  (finish - latest arrival). */
    Seconds collectiveTime = 0.0;
    /** Time the earliest arrival spent stalled on stragglers. */
    Seconds maxStallTime = 0.0;

    /** The underlying schedule, for trace export. */
    sim::Schedule schedule;
};

/** Knobs for simulateRingCollective beyond topology and payload. */
struct RingSimOptions
{
    hw::LinkEfficiencyParams linkParams;
    RingCollective collective = RingCollective::AllReduce;
    /** Optional graph rewrite applied between build and replay
     *  (not owned; nullptr or an empty pipeline = the reference
     *  path). */
    const sim::PassPipeline *passes = nullptr;
};

/**
 * Duration of one ring step when `payload` bytes are reduced across
 * `devices` participants on the topology's intra-node fabric.
 *
 * Semantics (pinned by the RingSim.StepTime* tests): each device
 * forwards one payload/devices chunk per step, split evenly across
 * the topology's parallel rings, so both the wire time and the link
 * efficiency lookup see the *per-ring* share — utilization follows
 * what each physical link actually carries, not the device's total.
 * The efficiency lookup floors the share at one byte only to keep
 * the curve defined for degenerate sub-byte shares; the wire term
 * always uses the true share.
 */
Seconds ringStepTime(const hw::Topology &topology, Bytes payload,
                     int devices,
                     const hw::LinkEfficiencyParams &link_params = {});

/**
 * Simulate a ring collective of `payload` bytes across
 * arrival_times.size() devices on the given topology's intra-node
 * fabric. arrival_times[d] is when device d's data becomes ready
 * (e.g. the end of its gradient computation).
 */
RingSimResult simulateRingCollective(
    const hw::Topology &topology, Bytes payload,
    const std::vector<Seconds> &arrival_times,
    const RingSimOptions &options = {});

} // namespace twocs::comm

#endif // TWOCS_COMM_RING_SIM_HH
