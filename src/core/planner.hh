/**
 * @file
 * Cluster layout planner: the downstream-facing composition of every
 * model in this library.
 *
 * Given a Transformer and a device, the planner enumerates
 * (TP, DP, PP, recompute) layouts that fit in memory on a device
 * budget, costs each one — TP all-reduces serialized (Section 3.3),
 * DP gradient all-reduces overlapped against backprop slack
 * (Section 3.4), pipeline bubbles and p2p transfers (Section 6.1.2)
 * — and ranks them by training throughput.
 */

#ifndef TWOCS_CORE_PLANNER_HH
#define TWOCS_CORE_PLANNER_HH

#include <vector>

#include "core/system_config.hh"
#include "model/memory.hh"
#include "model/zoo.hh"

namespace twocs::core {

/** Planner search space and assumptions. */
struct PlannerOptions
{
    /** Total accelerators available. */
    int maxDevices = 1024;
    /** Largest tensor-parallel degree to consider. */
    int maxTpDegree = 256;
    /** Largest pipeline depth to consider. */
    int maxPipelineStages = 16;
    /** Micro-batches per iteration (amortizes pipeline bubbles). */
    int microBatches = 16;
    /** Also consider activation recomputation. */
    bool allowRecompute = true;
    /** HBM fraction usable for model state. */
    double memoryUsableFraction = 0.9;
};

/** One evaluated layout. */
struct LayoutCandidate
{
    int tpDegree = 1;
    int dpDegree = 1;
    int pipelineStages = 1;
    bool recompute = false;

    int totalDevices() const
    {
        return tpDegree * dpDegree * pipelineStages;
    }

    /** Per-device memory footprint of one pipeline stage. */
    Bytes memoryPerDevice = 0.0;
    bool fitsInMemory = false;

    /** Wall-clock of one training iteration. */
    Seconds iterationTime = 0.0;
    /** Serialized (TP) communication inside that iteration. */
    Seconds serializedCommTime = 0.0;
    /** DP gradient communication that backprop slack cannot hide. */
    Seconds exposedDpCommTime = 0.0;
    /** Pipeline bubble share of the iteration. */
    double bubbleFraction = 0.0;

    /** Global training throughput, tokens per second. */
    double tokensPerSecond = 0.0;

    /** Serialized + exposed communication share of the iteration. */
    double commFraction() const
    {
        return (serializedCommTime + exposedDpCommTime) / iterationTime;
    }
};

/** Enumerates and ranks layouts for one model on one system. */
class LayoutPlanner
{
  public:
    LayoutPlanner(SystemConfig system, model::Hyperparams hp,
                  hw::Precision precision = hw::Precision::FP16);

    /** All memory-feasible layouts, best throughput first. */
    std::vector<LayoutCandidate>
    enumerate(const PlannerOptions &options = {}) const;

    /** The throughput-optimal feasible layout; fatal() if none. */
    LayoutCandidate best(const PlannerOptions &options = {}) const;

    /** Cost one specific layout (also usable for what-if queries). */
    LayoutCandidate evaluate(int tp, int dp, int pp,
                             bool recompute,
                             const PlannerOptions &options = {}) const;

  private:
    /** What evaluate() needs from one layer's profile. It depends on
     *  (tp, dp, recompute) only, so enumerate() shares it across
     *  every pipeline depth. */
    struct LayerCost
    {
        /** Forward + backward of one layer (serialized view). */
        Seconds time = 0.0;
        Seconds serializedCommTime = 0.0;
        /** DP slack ROI; only set when dp > 1. */
        Seconds slackDpCommTime = 0.0;
        Seconds slackBackpropTime = 0.0;
    };

    LayerCost costLayer(int tp, int dp, bool recompute) const;

    /** evaluate() with the layer profile already taken. */
    LayoutCandidate assemble(int tp, int dp, int pp, bool recompute,
                             const LayerCost &layer,
                             const PlannerOptions &options) const;

    SystemConfig system_;
    model::Hyperparams hp_;
    hw::Precision precision_;
};

} // namespace twocs::core

#endif // TWOCS_CORE_PLANNER_HH
