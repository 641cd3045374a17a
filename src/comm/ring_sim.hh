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
 * ZeRO-style variant), so the default engine compiles each distinct
 * (P, steps) graph once per thread and replays it per arrival-time
 * vector with zero graph construction; RingSimEngine::Rebuild keeps
 * the historical build-from-scratch path as the byte-identity
 * reference. A sim::PassPipeline can rewrite the ring graph (e.g.
 * fusing step chains) before replay; rewritten variants are cached
 * separately per pipeline.
 */

#ifndef TWOCS_COMM_RING_SIM_HH
#define TWOCS_COMM_RING_SIM_HH

#include <memory>
#include <vector>

#include "comm/collectives.hh"
#include "sim/engine.hh"
#include "sim/passes.hh"

namespace twocs::comm {

/** How simulateRingCollective obtains its task graph. */
enum class RingSimEngine
{
    /** Compile the ring template once per (device count, step
     *  count, pipeline) per thread, replay it per arrival vector.
     *  The default. */
    CompiledReplay,
    /** Rebuild the EventSimulator graph from scratch on every call
     *  — the historical path, kept as the measured baseline and the
     *  byte-identity reference for the replay tests. */
    Rebuild,
};

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
    RingSimEngine engine = RingSimEngine::CompiledReplay;
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

/**
 * simulateRingCollective over many arrival vectors at once: all sets
 * must have the same device count, and the compiled ring template is
 * advanced through sim::replayBatch in structure-of-arrays lane
 * blocks instead of one graph walk per vector — the straggler-study
 * path for thousands of jittered arrival draws. Results are
 * bit-identical to calling simulateRingCollective per vector, except
 * that the per-result `schedule` is left empty (batched replay keeps
 * only ends; use the single-shot API when a trace export is needed).
 * RingSimEngine::Rebuild falls back to per-vector calls and keeps
 * the full schedules — the byte-identity reference.
 */
std::vector<RingSimResult> simulateRingCollectiveBatch(
    const hw::Topology &topology, Bytes payload,
    const std::vector<std::vector<Seconds>> &arrival_sets,
    const RingSimOptions &options = {});

} // namespace twocs::comm

#endif // TWOCS_COMM_RING_SIM_HH
