/**
 * @file
 * Distributed-training configuration (paper Sections 2.3, 3.1, and
 * the 3D-parallelism extension).
 *
 * A ParallelPlan names one point in the (TP, PP, DP/ZeRO, EP)
 * scenario space:
 *
 *  - **Tensor parallelism** (TP) slices every layer Megatron-style
 *    and all-reduces activations and errors on the critical path
 *    (four all-reduces per layer).
 *  - **Pipeline parallelism** (PP) splits the layer stack into
 *    stages; activations/gradients cross stage boundaries as
 *    point-to-point sends, and the schedule's bubble is governed by
 *    the micro-batch count (GPipe/1F1B, bubble = (s-1)/(m+s-1)).
 *  - **Data parallelism** (DP) replicates the model and all-reduces
 *    weight gradients (overlappable with backprop compute). ZeRO
 *    stages 1-3 shard optimizer state / gradients / parameters over
 *    the DP group, lowering the monolithic all-reduce to
 *    reduce-scatter + all-gather (+ parameter all-gathers at stage 3).
 *  - **Expert parallelism** (EP) spreads MoE experts over devices and
 *    exchanges tokens with all-to-alls on the critical path.
 */

#ifndef TWOCS_MODEL_PARALLEL_HH
#define TWOCS_MODEL_PARALLEL_HH

#include <cstdint>
#include <string>

#include "model/hyperparams.hh"

namespace twocs::model {

/** How a model is spread over devices: one validated point in the
 *  (TP, PP, DP/ZeRO, EP) scenario space. */
struct ParallelPlan
{
    /** Tensor-parallel degree (number of slices per layer). */
    int tpDegree = 1;
    /** Pipeline-parallel degree (number of layer stages). */
    int ppDegree = 1;
    /**
     * Micro-batches in flight per pipeline iteration. With
     * ppDegree == 1 this must be 1; with pipelining it sets the
     * bubble fraction (s-1)/(m+s-1) and the number of activation
     * sends per stage boundary. Following analytic/pipeline.hh, the
     * model's batchSize is the *micro-batch* size: one iteration
     * processes microBatches x batchSize samples per replica.
     */
    int microBatches = 1;
    /** Data-parallel degree (number of model replicas). */
    int dpDegree = 1;
    /**
     * ZeRO stage over the DP group: 0 = plain DP (monolithic
     * gradient all-reduce), 1 = optimizer-state sharding (same
     * wire), 2 = gradient sharding (reduce-scatter + all-gather),
     * 3 = parameter sharding (adds forward/backward parameter
     * all-gathers).
     */
    int zeroStage = 0;
    /**
     * Expert-parallel degree for MoE models (paper Section 6.1.1):
     * experts are spread over this many devices and tokens are
     * exchanged with all-to-alls on the critical path. Ignored for
     * dense models.
     */
    int epDegree = 1;

    /**
     * Megatron-style sequence parallelism: the LayerNorm/dropout/
     * residual regions between TP blocks are sharded along the
     * sequence dimension, and each TP all-reduce becomes a
     * reduce-scatter + all-gather pair (identical ring wire volume,
     * so the Comp-vs-Comm picture is unchanged, but the full-width
     * element-wise work and activation memory shrink by 1/TP).
     */
    bool sequenceParallel = false;
    /**
     * Whether DP gradient all-reduces/reduce-scatters may overlap
     * backprop compute (asynchronous bucketed collectives, Section
     * 2.3.2). When false they serialize at the end of the backward
     * pass, ahead of every optimizer step. The event-engine studies
     * (core::lowerIteration: `cluster`, the case study) honour it;
     * the analytic `project`/`analyze` totals do not read it.
     */
    bool overlapDpComm = true;

    /**
     * Total devices involved: every axis multiplies. The expert-
     * parallel group is orthogonal to the data-parallel group here
     * (each DP replica shards its experts over epDegree devices).
     */
    std::int64_t totalDevices() const
    {
        return static_cast<std::int64_t>(tpDegree) * ppDegree *
               dpDegree * epDegree;
    }

    /** True when the plan adds nothing beyond plain TPxDP — no
     *  pipelining, no ZeRO sharding. Trivial plans reproduce the
     *  paper's original op streams byte-for-byte. */
    bool trivial() const
    {
        return ppDegree == 1 && microBatches == 1 && zeroStage == 0;
    }

    /** Layers per pipeline stage (numLayers / ppDegree). */
    int stageLayers(const Hyperparams &hp) const
    {
        return hp.numLayers / ppDegree;
    }

    /** Check divisibility and composition constraints against a
     *  model; fatal() with an actionable message on violation. */
    void validate(const Hyperparams &hp) const;

    /**
     * Parse a plan from its flag syntax:
     * `tp=8,pp=4,dp=2,zero=1,ep=8,micro=16,sp=1,overlap=0`. Every
     * key is optional (missing keys keep their defaults); unknown
     * keys are fatal with the list of accepted ones.
     */
    static ParallelPlan parse(const std::string &spec);

    /** Canonical `tp=..,pp=..,..` string (round-trips via parse). */
    std::string summary() const;

    bool operator==(const ParallelPlan &) const = default;
};

} // namespace twocs::model

#endif // TWOCS_MODEL_PARALLEL_HH
