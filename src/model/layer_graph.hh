/**
 * @file
 * Builds the operator stream of a distributed Transformer training
 * iteration (paper Figures 4 and 5).
 *
 * One encoder/decoder layer contains an attention sub-layer (QKV
 * projection, Q*K^T scores, softmax, attention*V, output projection)
 * and a fully-connected sub-layer (FC1, GELU, FC2), each followed by
 * dropout, residual addition, and LayerNorm. Under Megatron-style TP
 * the parameter matrices are sliced across devices and four
 * activation/error all-reduces per layer land on the critical path
 * (two forward, two backward). DP adds one overlappable weight-
 * gradient all-reduce per sub-layer — or, under ZeRO stages 2/3, a
 * reduce-scatter + all-gather pair (plus serialized ZeRO-3 parameter
 * all-gathers). Pipeline parallelism restricts the stream to one
 * stage's layers, repeated per micro-batch, with point-to-point
 * boundary sends; MoE routing adds all-to-alls.
 */

#ifndef TWOCS_MODEL_LAYER_GRAPH_HH
#define TWOCS_MODEL_LAYER_GRAPH_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "hw/kernels.hh"
#include "model/hyperparams.hh"
#include "model/parallel.hh"
#include "util/units.hh"

namespace twocs::model {

/** What role an operator plays in the training timeline. */
enum class OpRole
{
    FwdCompute,     //!< forward kernel
    BwdCompute,     //!< backward kernel (WG/IG GEMMs, bwd elementwise)
    TpAllReduceFwd, //!< serialized activation all-reduce (forward)
    TpAllReduceBwd, //!< serialized error all-reduce (backward)
    DpAllReduce,    //!< overlappable weight-gradient all-reduce
    /** Overlappable gradient reduce-scatter (ZeRO stage >= 2 lowers
     *  the monolithic DP all-reduce to RS + AG). */
    DpReduceScatter,
    /** Overlappable gathered-shard all-gather, the second half of
     *  the ZeRO-2/3 gradient exchange. */
    DpAllGather,
    /** Serialized parameter all-gather before a sub-layer touches
     *  its ZeRO-3-sharded weights (forward and backward). */
    ZeroParamAllGather,
    EpAllToAll,     //!< serialized MoE token exchange (Section 6.1.1)
    /** Serialized pipeline-stage activation send (forward). */
    PpSendFwd,
    /** Serialized pipeline-stage gradient send (backward). */
    PpSendBwd,
    OptimizerStep,  //!< parameter update after gradients are ready
};

std::string opRoleName(OpRole role);

/** Number of OpRole values (OptimizerStep stays the last one). */
inline constexpr std::size_t numOpRoles =
    static_cast<std::size_t>(OpRole::OptimizerStep) + 1;

/** Dense index of a role, for per-role arrays. */
constexpr std::size_t
roleIndex(OpRole role)
{
    return static_cast<std::size_t>(role);
}

/** The role groups every time breakdown reports, each listed in the
 *  order its per-role sums are added. Compute: kernels on the
 *  critical path. */
inline constexpr std::array<OpRole, 3> computeRoles = {
    OpRole::FwdCompute, OpRole::BwdCompute, OpRole::OptimizerStep
};

/** Serialized communication: TP all-reduces, MoE all-to-alls,
 *  pipeline boundary sends and ZeRO-3 parameter all-gathers all sit
 *  on the critical path (Sections 2.3.3 and 6.1.1, plus the
 *  3D-parallelism lowering). */
inline constexpr std::array<OpRole, 6> serializedCommRoles = {
    OpRole::TpAllReduceFwd, OpRole::TpAllReduceBwd, OpRole::EpAllToAll,
    OpRole::PpSendFwd,      OpRole::PpSendBwd,
    OpRole::ZeroParamAllGather
};

/** Overlappable DP gradient communication. */
inline constexpr std::array<OpRole, 3> dpCommRoles = {
    OpRole::DpAllReduce, OpRole::DpReduceScatter, OpRole::DpAllGather
};

/** Every role outside computeRoles is a collective or a send. */
constexpr bool
isCommRole(OpRole role)
{
    return std::find(computeRoles.begin(), computeRoles.end(), role) ==
           computeRoles.end();
}

/** Which sub-layer an operator belongs to. */
enum class SubLayer
{
    Attention,
    FeedForward,
};

std::string subLayerName(SubLayer sub);

/** One operator in the training stream (compute or communication). */
struct TrainingOp
{
    OpRole role = OpRole::FwdCompute;
    SubLayer subLayer = SubLayer::Attention;
    int layerIndex = 0;

    /** Kernel descriptor; valid for compute/optimizer roles. */
    hw::KernelDesc kernel;

    /** Collective payload bytes; valid for all-reduce roles. */
    Bytes commBytes = 0.0;

    bool isComm() const { return isCommRole(role); }
    bool isCompute() const { return !isComm(); }

    /** Only DP gradient collectives (all-reduce, or the ZeRO
     *  reduce-scatter + all-gather pair) may overlap compute. */
    bool overlappable() const
    {
        return std::find(dpCommRoles.begin(), dpCommRoles.end(),
                         role) != dpCommRoles.end();
    }
};

/**
 * The periodic structure of one device's training iteration. Every
 * layer of a pipeline stage emits the same operators, so the stream
 * is a few layer-0 templates, each repeated with its own layer
 * index:
 *   - per micro-batch, the forward template once per stage layer
 *     (ascending), then the PpSendFwd part;
 *   - per micro-batch, the backward template once per stage layer
 *     (descending; the last micro-batch uses the final form, which
 *     carries the DP collectives and the optimizer step), then the
 *     PpSendBwd part.
 * walk() is the one definition of that order: iterationOps() expands
 * it into ops, and the profiler and the operator model cost each
 * template once and fold along it.
 */
struct IterationShape
{
    /** Which template a stretch of the stream repeats. */
    enum class Part
    {
        Forward,
        Backward,      //!< gradient-accumulation form (not the last micro)
        FinalBackward, //!< last micro-batch: DP collectives + optimizer
        PpSendFwd,     //!< one op per micro-batch; empty when pp == 1
        PpSendBwd,     //!< one op per micro-batch; empty when pp == 1
    };
    static constexpr std::size_t numParts = 5;

    /** Layer-0 templates, indexed by Part. */
    std::array<std::vector<TrainingOp>, numParts> parts;
    int microBatches = 1;
    int stageLayers = 1;

    const std::vector<TrainingOp> &ops(Part part) const
    {
        return parts[static_cast<std::size_t>(part)];
    }

    /** Ops in the expanded stream. */
    std::size_t opCount() const;

    /** Call visit(part, layer_index) once per template repetition,
     *  in issue order. */
    template <typename Visit>
    void walk(Visit &&visit) const
    {
        for (int micro = 0; micro < microBatches; ++micro) {
            for (int l = 0; l < stageLayers; ++l)
                visit(Part::Forward, l);
            visit(Part::PpSendFwd, stageLayers - 1);
        }
        for (int micro = 0; micro < microBatches; ++micro) {
            const Part bwd = micro == microBatches - 1
                                 ? Part::FinalBackward
                                 : Part::Backward;
            for (int l = stageLayers - 1; l >= 0; --l)
                visit(bwd, l);
            visit(Part::PpSendBwd, 0);
        }
    }

    /**
     * Cost every template op once with cost(op), then call
     * sink(role, seconds) for every op of the expanded stream in
     * issue order. Costs do not depend on the layer index, so any
     * fold in `sink` matches the same fold over costed
     * iterationOps() bit for bit.
     */
    template <typename Cost, typename Sink>
    void foldCosts(Cost &&cost, Sink &&sink) const
    {
        std::array<std::vector<std::pair<OpRole, Seconds>>, numParts>
            costed;
        for (std::size_t p = 0; p < numParts; ++p) {
            costed[p].reserve(parts[p].size());
            for (const TrainingOp &op : parts[p])
                costed[p].emplace_back(op.role, cost(op));
        }
        walk([&](Part part, int) {
            for (const auto &[role, t] :
                 costed[static_cast<std::size_t>(part)])
                sink(role, t);
        });
    }
};

/** Emits the per-layer / per-iteration operator streams. */
class LayerGraphBuilder
{
  public:
    /**
     * @param fuse_elementwise Fold GELU, dropout and residual
     *        additions into the adjacent GEMMs (zero standalone
     *        cost), as modern Transformer implementations do
     *        (paper Section 3.3). LayerNorm and softmax always
     *        remain standalone kernels.
     * @param recompute_activations Re-execute each layer's forward
     *        pass at the start of its backward pass (activation
     *        checkpointing): trades ~1/3 more compute for the
     *        activation memory the MemoryModel's checkpointing mode
     *        assumes.
     */
    LayerGraphBuilder(Hyperparams hp, ParallelPlan par,
                      hw::Precision precision = hw::Precision::FP16,
                      bool include_optimizer = true,
                      bool fuse_elementwise = true,
                      bool recompute_activations = false);

    const Hyperparams &hyperparams() const { return hp_; }
    const ParallelPlan &parallel() const { return par_; }
    hw::Precision precision() const { return precision_; }

    /** Forward operators of one layer, in issue order (including
     *  the ZeRO-3 parameter all-gathers when the plan shards
     *  parameters). */
    std::vector<TrainingOp> forwardLayerOps(int layer) const;

    /**
     * Backward operators of one layer (reverse order of forward),
     * including WG/IG GEMMs, the two serialized TP all-reduces, the
     * per-sub-layer DP gradient collectives (all-reduce, or the
     * ZeRO reduce-scatter + all-gather lowering), and (optionally)
     * the optimizer step. `final_micro = false` emits the gradient-
     * accumulation form: compute only, no DP collectives and no
     * optimizer (every pipeline micro-batch but the last).
     */
    std::vector<TrainingOp> backwardLayerOps(
        int layer, bool final_micro = true) const;

    /**
     * A full training iteration: every micro-batch's forward over
     * this device's pipeline stage (numLayers / ppDegree layers,
     * each boundary crossing as a PpSendFwd), then every
     * micro-batch's backward (PpSendBwd per boundary), with DP
     * gradient collectives and the optimizer on the final
     * micro-batch only. A trivial plan (pp = 1) reproduces the
     * paper's original all-layer stream.
     */
    std::vector<TrainingOp> iterationOps() const;

    /** The periodic shape iterationOps() expands: layer-0 templates
     *  plus the micro-batch and stage-layer repeat counts. */
    IterationShape iterationShape() const;

    /**
     * Forward-only operator stream over all layers: the inference
     * prefill path of Section 6.3 (no backward, no optimizer, no DP
     * gradient traffic; TP and EP collectives remain).
     */
    std::vector<TrainingOp> inferenceOps() const;

    /**
     * One autoregressive decode step (a single new token per
     * sequence) against a KV cache of `context_len` tokens, over all
     * layers: GEMV-like projections, attention streaming the cache,
     * and per-layer TP all-reduces of just B * H bytes — the
     * latency-bound regime of distributed inference.
     */
    std::vector<TrainingOp> decodeStepOps(std::int64_t context_len) const;

    /** Payload of one MoE all-to-all (dispatch or combine). */
    Bytes epAllToAllBytes() const;

    /** Payload of one TP activation/error all-reduce (Eq. 5). */
    Bytes tpAllReduceBytes() const;

    /** Payload of one pipeline stage-boundary send: a micro-batch's
     *  activation (or gradient) tensor, B * SL * H elements. */
    Bytes ppBoundaryBytes() const;

    /** Weight-gradient bytes of the attention sub-layer (per dev). */
    Bytes attnWeightGradBytes() const;

    /** Weight-gradient bytes of the FC sub-layer (Eq. 8, per dev). */
    Bytes fcWeightGradBytes() const;

    /** Total weight-gradient bytes per layer per device. */
    Bytes layerWeightGradBytes() const;

    /** Learnable parameters held by one device for one layer
     *  (TP-sliced; MoE-aware). */
    double perDeviceLayerParams() const;

    /** Serialized all-reduces per layer (2 fwd + 2 bwd). */
    static constexpr int tpAllReducesPerLayer = 4;

  private:
    std::vector<TrainingOp> forwardSubLayerOps(int layer,
                                               SubLayer sub) const;
    std::vector<TrainingOp> backwardSubLayerOps(int layer,
                                                SubLayer sub,
                                                bool final_micro) const;

    /** Per-sub-layer DP gradient exchange, lowered per the plan's
     *  ZeRO stage. */
    void pushDpGradOps(std::vector<TrainingOp> &ops, SubLayer sub,
                       int layer, Bytes grad_bytes) const;
    /** ZeRO-3 parameter all-gather ahead of a sub-layer's use. */
    void pushZeroParamGather(std::vector<TrainingOp> &ops,
                             SubLayer sub, int layer,
                             Bytes weight_bytes) const;

    TrainingOp gemmOp(OpRole role, SubLayer sub, int layer,
                      const std::string &label, std::int64_t m,
                      std::int64_t n, std::int64_t k) const;
    TrainingOp elemOp(OpRole role, SubLayer sub, int layer,
                      hw::KernelKind kind, const std::string &label,
                      std::int64_t elems) const;
    TrainingOp commOp(OpRole role, SubLayer sub, int layer,
                      Bytes bytes) const;

    /** Append `op` unless it is a fused-away element-wise kernel. */
    void push(std::vector<TrainingOp> &ops, TrainingOp op) const;

    Hyperparams hp_;
    ParallelPlan par_;
    hw::Precision precision_;
    bool includeOptimizer_;
    bool fuseElementwise_;
    bool recomputeActivations_;
};

/**
 * DDP-style gradient bucketing: walk an operator stream and merge
 * pending DP gradient all-reduces into buckets of at least
 * bucket_bytes before issuing them (larger buckets amortize per-
 * collective latency; smaller buckets start communicating earlier
 * and overlap more). bucket_bytes == 0 returns the stream unchanged
 * (one all-reduce per sub-layer, the paper's granularity).
 */
std::vector<TrainingOp> coalesceDpAllReduces(std::vector<TrainingOp> ops,
                                             Bytes bucket_bytes);

} // namespace twocs::model

#endif // TWOCS_MODEL_LAYER_GRAPH_HH
