/**
 * @file
 * The one lowering from a training iteration's op stream onto the
 * discrete-event engine, shared by the Figure 14 case study and the
 * explicit multi-device cluster simulation (DESIGN.md §14).
 *
 * Each op of LayerGraphBuilder::iterationOps() is lowered once onto
 * one compute and one comm stream per device. Compute and serialized
 * collectives form one chain per device; a DP gradient collective
 * hangs off the compute task just before it, and only its layer's
 * optimizer step waits on it. With the plan's overlapDpComm off, DP
 * collectives and optimizer steps move to the end of the iteration.
 * The lowering applies no jitter.
 */

#ifndef TWOCS_CORE_LOWERING_HH
#define TWOCS_CORE_LOWERING_HH

#include "core/system_config.hh"
#include "model/layer_graph.hh"
#include "sim/engine.hh"

namespace twocs::core {

/** The study knobs the lowering reads besides the op stream and the
 *  system (CaseStudyConfig's; the defaults are the cluster's). */
struct LoweringOptions
{
    /** 1 (TP costed in closed form) or the plan's TP degree (TP as
     *  an explicit ring of 2(p-1) steps). */
    int devices = 1;
    bool interNodeDp = false;
    double interNodeSlowdown = 8.0;
    int devicesPerNode = 4;
    double fineGrainedOverlapFraction = 0.0;
    /** Slowdown of DP collectives and overlap tails (offload-aware). */
    double commInterference = 1.0;
    Bytes dpBucketBytes = 0.0;
};

/** Stream ids of device d in a lowered graph. */
constexpr sim::ResourceId computeStream(int d) { return 2 * d; }
constexpr sim::ResourceId commStream(int d) { return 2 * d + 1; }

/**
 * Lower one training iteration of `graph` under `system`. Streams
 * are `compute`/`comm` at one device, `compute<d>`/`comm<d>` at p.
 * Tags: `compute`; `tp_ar` and `overlap_tail` (closed-form TP);
 * `ring_step`; `ep_a2a`; `dp_ar` (every DP gradient collective);
 * `plan_coll` (PP sends, ZeRO parameter gathers).
 */
sim::EventSimulator lowerIteration(const model::LayerGraphBuilder &graph,
                                   const SystemConfig &system,
                                   const LoweringOptions &options);

} // namespace twocs::core

#endif // TWOCS_CORE_LOWERING_HH
