#include "layer_graph.hh"

#include "util/logging.hh"

namespace twocs::model {

std::string
opRoleName(OpRole role)
{
    switch (role) {
      case OpRole::FwdCompute:
        return "fwd_compute";
      case OpRole::BwdCompute:
        return "bwd_compute";
      case OpRole::TpAllReduceFwd:
        return "tp_allreduce_fwd";
      case OpRole::TpAllReduceBwd:
        return "tp_allreduce_bwd";
      case OpRole::DpAllReduce:
        return "dp_allreduce";
      case OpRole::DpReduceScatter:
        return "dp_reduce_scatter";
      case OpRole::DpAllGather:
        return "dp_allgather";
      case OpRole::ZeroParamAllGather:
        return "zero_param_allgather";
      case OpRole::EpAllToAll:
        return "ep_alltoall";
      case OpRole::PpSendFwd:
        return "pp_send_fwd";
      case OpRole::PpSendBwd:
        return "pp_send_bwd";
      case OpRole::OptimizerStep:
        return "optimizer_step";
    }
    panic("unknown op role");
}

std::string
subLayerName(SubLayer sub)
{
    switch (sub) {
      case SubLayer::Attention:
        return "attention";
      case SubLayer::FeedForward:
        return "feedforward";
    }
    panic("unknown sub-layer");
}

LayerGraphBuilder::LayerGraphBuilder(Hyperparams hp, ParallelPlan par,
                                     hw::Precision precision,
                                     bool include_optimizer,
                                     bool fuse_elementwise,
                                     bool recompute_activations)
    : hp_(std::move(hp)), par_(par), precision_(precision),
      includeOptimizer_(include_optimizer),
      fuseElementwise_(fuse_elementwise),
      recomputeActivations_(recompute_activations)
{
    hp_.validate();
    par_.validate(hp_);
}

void
LayerGraphBuilder::push(std::vector<TrainingOp> &ops, TrainingOp op) const
{
    if (fuseElementwise_ && op.isCompute()) {
        switch (op.kernel.kind) {
          case hw::KernelKind::Gelu:
          case hw::KernelKind::Dropout:
          case hw::KernelKind::Residual:
            return; // folded into the adjacent GEMM's epilogue
          default:
            break;
        }
    }
    ops.push_back(std::move(op));
}

TrainingOp
LayerGraphBuilder::gemmOp(OpRole role, SubLayer sub, int layer,
                          const std::string &label, std::int64_t m,
                          std::int64_t n, std::int64_t k) const
{
    TrainingOp op;
    op.role = role;
    op.subLayer = sub;
    op.layerIndex = layer;
    op.kernel.kind = hw::KernelKind::Gemm;
    op.kernel.label = label;
    op.kernel.precision = precision_;
    op.kernel.gemm = { m, n, k };
    return op;
}

TrainingOp
LayerGraphBuilder::elemOp(OpRole role, SubLayer sub, int layer,
                          hw::KernelKind kind, const std::string &label,
                          std::int64_t elems) const
{
    // Under sequence parallelism the full-width element-wise regions
    // between the TP blocks shard along the sequence dimension.
    if (par_.sequenceParallel &&
        (kind == hw::KernelKind::LayerNorm ||
         kind == hw::KernelKind::Dropout ||
         kind == hw::KernelKind::Residual)) {
        elems /= par_.tpDegree;
    }

    TrainingOp op;
    op.role = role;
    op.subLayer = sub;
    op.layerIndex = layer;
    op.kernel.kind = kind;
    op.kernel.label = label;
    op.kernel.precision = precision_;
    op.kernel.elems = elems;
    return op;
}

TrainingOp
LayerGraphBuilder::commOp(OpRole role, SubLayer sub, int layer,
                          Bytes bytes) const
{
    TrainingOp op;
    op.role = role;
    op.subLayer = sub;
    op.layerIndex = layer;
    op.kernel.label = opRoleName(role);
    op.commBytes = bytes;
    return op;
}

Bytes
LayerGraphBuilder::tpAllReduceBytes() const
{
    // Eq. 5: (precision/8) * B * SL * H.
    return hw::precisionBytes(precision_) *
           static_cast<double>(hp_.batchSize) *
           static_cast<double>(hp_.sequenceLength) *
           static_cast<double>(hp_.hidden);
}

Bytes
LayerGraphBuilder::attnWeightGradBytes() const
{
    const double h = static_cast<double>(hp_.hidden);
    // QKV (3 H^2) + output projection (H^2), sliced by TP.
    return hw::precisionBytes(precision_) * 4.0 * h * h / par_.tpDegree;
}

Bytes
LayerGraphBuilder::fcWeightGradBytes() const
{
    const double h = static_cast<double>(hp_.hidden);
    const double fc = static_cast<double>(hp_.fcDim);
    // FC1 (H x fc) + FC2 (fc x H), sliced by TP (Eq. 8 with fc = 4H).
    // MoE models hold numExperts/epDegree such expert FFNs per device.
    const double experts_per_dev =
        hp_.moe.enabled()
            ? static_cast<double>(hp_.moe.numExperts) / par_.epDegree
            : 1.0;
    return hw::precisionBytes(precision_) * experts_per_dev * 2.0 * h *
           fc / par_.tpDegree;
}

Bytes
LayerGraphBuilder::epAllToAllBytes() const
{
    panicIf(!hp_.moe.enabled(),
            "epAllToAllBytes() on a dense model");
    // Each device dispatches its local tokens' routed (top-k, padded
    // by the capacity factor) activations across the EP group.
    return hw::precisionBytes(precision_) *
           static_cast<double>(hp_.batchSize) *
           static_cast<double>(hp_.sequenceLength) *
           static_cast<double>(hp_.hidden) * hp_.moe.topK *
           hp_.moe.capacityFactor;
}

Bytes
LayerGraphBuilder::ppBoundaryBytes() const
{
    // One micro-batch's activation tensor crosses the stage
    // boundary: B * SL * H elements (same shape as a TP all-reduce
    // payload, Eq. 5).
    return tpAllReduceBytes();
}

Bytes
LayerGraphBuilder::layerWeightGradBytes() const
{
    return attnWeightGradBytes() + fcWeightGradBytes();
}

double
LayerGraphBuilder::perDeviceLayerParams() const
{
    return layerWeightGradBytes() / hw::precisionBytes(precision_);
}

void
LayerGraphBuilder::pushDpGradOps(std::vector<TrainingOp> &ops,
                                 SubLayer sub, int layer,
                                 Bytes grad_bytes) const
{
    if (par_.dpDegree < 2)
        return;
    if (par_.zeroStage <= 1) {
        // Plain DP / ZeRO-1: the monolithic gradient all-reduce
        // (optimizer-state sharding moves no extra gradient bytes).
        push(ops, commOp(OpRole::DpAllReduce, sub, layer, grad_bytes));
        return;
    }
    // ZeRO-2/3 lowering: reduce-scatter the full gradient, then
    // all-gather each rank's reduced shard — the same ring wire
    // volume as the all-reduce it replaces.
    push(ops, commOp(OpRole::DpReduceScatter, sub, layer, grad_bytes));
    push(ops, commOp(OpRole::DpAllGather, sub, layer,
                     grad_bytes / par_.dpDegree));
}

void
LayerGraphBuilder::pushZeroParamGather(std::vector<TrainingOp> &ops,
                                       SubLayer sub, int layer,
                                       Bytes weight_bytes) const
{
    if (par_.zeroStage < 3 || par_.dpDegree < 2)
        return;
    // ZeRO-3 holds 1/dp of every weight tensor per rank; the
    // sub-layer all-gathers the full tensor before using it, on the
    // critical path of both passes.
    push(ops, commOp(OpRole::ZeroParamAllGather, sub, layer,
                     weight_bytes / par_.dpDegree));
}

std::vector<TrainingOp>
LayerGraphBuilder::forwardSubLayerOps(int layer, SubLayer sub) const
{
    const std::int64_t b = hp_.batchSize;
    const std::int64_t sl = hp_.sequenceLength;
    const std::int64_t h = hp_.hidden;
    const std::int64_t fc = hp_.fcDim;
    const std::int64_t t = par_.tpDegree;
    const std::int64_t heads_per_dev = hp_.numHeads / t;
    const std::int64_t hd = hp_.headDim();
    const std::int64_t tokens = b * sl;

    std::vector<TrainingOp> ops;
    const OpRole fwd = OpRole::FwdCompute;

    pushZeroParamGather(ops, sub, layer,
                        sub == SubLayer::Attention
                            ? attnWeightGradBytes()
                            : fcWeightGradBytes());

    if (sub == SubLayer::Attention) {
        push(ops, elemOp(fwd, sub, layer, hw::KernelKind::LayerNorm,
                             "ln1_fwd", tokens * h));
        push(ops, gemmOp(fwd, sub, layer, "qkv_fwd", tokens,
                             3 * h / t, h));
        // Batched attention GEMMs folded into tall GEMMs: one row
        // block per (batch, head) pair.
        push(ops, gemmOp(fwd, sub, layer, "scores_fwd",
                             b * heads_per_dev * sl, sl, hd));
        push(ops, elemOp(fwd, sub, layer, hw::KernelKind::Softmax,
                             "softmax_fwd", b * heads_per_dev * sl * sl));
        push(ops, gemmOp(fwd, sub, layer, "attnv_fwd",
                             b * heads_per_dev * sl, hd, sl));
        push(ops, gemmOp(fwd, sub, layer, "proj_fwd", tokens, h,
                             h / t));
        if (t > 1) {
            push(ops, commOp(OpRole::TpAllReduceFwd, sub, layer,
                                 tpAllReduceBytes()));
        }
        push(ops, elemOp(fwd, sub, layer, hw::KernelKind::Dropout,
                             "dropout1_fwd", tokens * h));
        push(ops, elemOp(fwd, sub, layer, hw::KernelKind::Residual,
                             "residual1_fwd", tokens * h));
    } else {
        const bool moe = hp_.moe.enabled();
        // Tokens each device processes through its local experts
        // after routing (top-k copies, padded by capacity factor).
        const std::int64_t routed =
            moe ? static_cast<std::int64_t>(
                      tokens * hp_.moe.topK * hp_.moe.capacityFactor)
                : tokens;

        push(ops, elemOp(fwd, sub, layer, hw::KernelKind::LayerNorm,
                             "ln2_fwd", tokens * h));
        if (moe) {
            push(ops, gemmOp(fwd, sub, layer, "router_fwd", tokens,
                             hp_.moe.numExperts, h));
            if (par_.epDegree > 1) {
                push(ops, commOp(OpRole::EpAllToAll, sub, layer,
                                 epAllToAllBytes()));
            }
        }
        push(ops, gemmOp(fwd, sub, layer, "fc1_fwd", routed, fc / t,
                             h));
        push(ops, elemOp(fwd, sub, layer, hw::KernelKind::Gelu,
                             "gelu_fwd", routed * fc / t));
        push(ops, gemmOp(fwd, sub, layer, "fc2_fwd", routed, h,
                             fc / t));
        if (moe && par_.epDegree > 1) {
            push(ops, commOp(OpRole::EpAllToAll, sub, layer,
                             epAllToAllBytes()));
        }
        if (t > 1) {
            push(ops, commOp(OpRole::TpAllReduceFwd, sub, layer,
                                 tpAllReduceBytes()));
        }
        push(ops, elemOp(fwd, sub, layer, hw::KernelKind::Dropout,
                             "dropout2_fwd", tokens * h));
        push(ops, elemOp(fwd, sub, layer, hw::KernelKind::Residual,
                             "residual2_fwd", tokens * h));
    }
    return ops;
}

std::vector<TrainingOp>
LayerGraphBuilder::backwardSubLayerOps(int layer, SubLayer sub,
                                       bool final_micro) const
{
    const std::int64_t b = hp_.batchSize;
    const std::int64_t sl = hp_.sequenceLength;
    const std::int64_t h = hp_.hidden;
    const std::int64_t fc = hp_.fcDim;
    const std::int64_t t = par_.tpDegree;
    const std::int64_t heads_per_dev = hp_.numHeads / t;
    const std::int64_t hd = hp_.headDim();
    const std::int64_t tokens = b * sl;

    std::vector<TrainingOp> ops;
    const OpRole bwd = OpRole::BwdCompute;

    if (sub == SubLayer::FeedForward) {
        const bool moe = hp_.moe.enabled();
        const std::int64_t routed =
            moe ? static_cast<std::int64_t>(
                      tokens * hp_.moe.topK * hp_.moe.capacityFactor)
                : tokens;

        pushZeroParamGather(ops, sub, layer, fcWeightGradBytes());
        push(ops, elemOp(bwd, sub, layer, hw::KernelKind::Residual,
                             "residual2_bwd", tokens * h));
        push(ops, elemOp(bwd, sub, layer, hw::KernelKind::Dropout,
                             "dropout2_bwd", tokens * h));
        if (moe && par_.epDegree > 1) {
            // Gradients of the combine step flow back to the experts.
            push(ops, commOp(OpRole::EpAllToAll, sub, layer,
                             epAllToAllBytes()));
        }
        // FC2: input grad then weight grad.
        push(ops, gemmOp(bwd, sub, layer, "fc2_ig", routed, fc / t,
                             h));
        push(ops, gemmOp(bwd, sub, layer, "fc2_wg", fc / t, h,
                             routed));
        push(ops, elemOp(bwd, sub, layer, hw::KernelKind::Gelu,
                             "gelu_bwd", routed * fc / t));
        // FC1: input grad (feeds the serialized error all-reduce).
        push(ops, gemmOp(bwd, sub, layer, "fc1_ig", routed, h,
                             fc / t));
        push(ops, gemmOp(bwd, sub, layer, "fc1_wg", h, fc / t,
                             routed));
        if (moe && par_.epDegree > 1) {
            // Token gradients return to their source devices.
            push(ops, commOp(OpRole::EpAllToAll, sub, layer,
                             epAllToAllBytes()));
        }
        if (moe) {
            push(ops, gemmOp(bwd, sub, layer, "router_bwd", tokens,
                             hp_.moe.numExperts, h));
        }
        if (t > 1) {
            push(ops, commOp(OpRole::TpAllReduceBwd, sub, layer,
                                 tpAllReduceBytes()));
        }
        push(ops, elemOp(bwd, sub, layer, hw::KernelKind::LayerNorm,
                             "ln2_bwd", tokens * h));
        if (final_micro)
            pushDpGradOps(ops, sub, layer, fcWeightGradBytes());
    } else {
        pushZeroParamGather(ops, sub, layer, attnWeightGradBytes());
        push(ops, elemOp(bwd, sub, layer, hw::KernelKind::Residual,
                             "residual1_bwd", tokens * h));
        push(ops, elemOp(bwd, sub, layer, hw::KernelKind::Dropout,
                             "dropout1_bwd", tokens * h));
        // Output projection.
        push(ops, gemmOp(bwd, sub, layer, "proj_ig", tokens, h / t,
                             h));
        push(ops, gemmOp(bwd, sub, layer, "proj_wg", h / t, h,
                             tokens));
        // attention * V: gradients w.r.t. both activation inputs.
        push(ops, gemmOp(bwd, sub, layer, "attnv_dattn",
                             b * heads_per_dev * sl, sl, hd));
        push(ops, gemmOp(bwd, sub, layer, "attnv_dv",
                             b * heads_per_dev * sl, hd, sl));
        push(ops, elemOp(bwd, sub, layer, hw::KernelKind::Softmax,
                             "softmax_bwd", b * heads_per_dev * sl * sl));
        // Q*K^T: gradients w.r.t. Q and K.
        push(ops, gemmOp(bwd, sub, layer, "scores_dq",
                             b * heads_per_dev * sl, hd, sl));
        push(ops, gemmOp(bwd, sub, layer, "scores_dk",
                             b * heads_per_dev * sl, hd, sl));
        // QKV projection: input grad feeds the error all-reduce.
        push(ops, gemmOp(bwd, sub, layer, "qkv_ig", tokens, h,
                             3 * h / t));
        push(ops, gemmOp(bwd, sub, layer, "qkv_wg", h, 3 * h / t,
                             tokens));
        if (t > 1) {
            push(ops, commOp(OpRole::TpAllReduceBwd, sub, layer,
                                 tpAllReduceBytes()));
        }
        push(ops, elemOp(bwd, sub, layer, hw::KernelKind::LayerNorm,
                             "ln1_bwd", tokens * h));
        if (final_micro)
            pushDpGradOps(ops, sub, layer, attnWeightGradBytes());
    }
    return ops;
}

std::vector<TrainingOp>
LayerGraphBuilder::forwardLayerOps(int layer) const
{
    std::vector<TrainingOp> ops =
        forwardSubLayerOps(layer, SubLayer::Attention);
    std::vector<TrainingOp> fc_ops =
        forwardSubLayerOps(layer, SubLayer::FeedForward);
    ops.insert(ops.end(), fc_ops.begin(), fc_ops.end());
    return ops;
}

std::vector<TrainingOp>
LayerGraphBuilder::backwardLayerOps(int layer, bool final_micro) const
{
    std::vector<TrainingOp> ops;
    if (recomputeActivations_) {
        // Activation checkpointing re-runs the layer's forward pass
        // (as backward compute) to regenerate the stashed tensors.
        for (TrainingOp op : forwardLayerOps(layer)) {
            if (op.isComm() || op.role != OpRole::FwdCompute)
                continue;
            op.role = OpRole::BwdCompute;
            op.kernel.label += "_recompute";
            ops.push_back(std::move(op));
        }
    }

    // Backward traverses sub-layers in reverse: FC first.
    std::vector<TrainingOp> fc_ops =
        backwardSubLayerOps(layer, SubLayer::FeedForward, final_micro);
    ops.insert(ops.end(), fc_ops.begin(), fc_ops.end());
    std::vector<TrainingOp> attn_ops =
        backwardSubLayerOps(layer, SubLayer::Attention, final_micro);
    ops.insert(ops.end(), attn_ops.begin(), attn_ops.end());

    if (includeOptimizer_ && final_micro) {
        const std::int64_t layer_params =
            static_cast<std::int64_t>(perDeviceLayerParams());
        TrainingOp op = elemOp(OpRole::OptimizerStep,
                               SubLayer::FeedForward, layer,
                               hw::KernelKind::OptimStep, "optim_step",
                               layer_params);
        // Optimizer state is kept in FP32 regardless of the training
        // precision (mixed-precision convention).
        op.kernel.precision = hw::Precision::FP32;
        ops.push_back(op);
    }
    return ops;
}

std::size_t
IterationShape::opCount() const
{
    const std::size_t micro = static_cast<std::size_t>(microBatches);
    const std::size_t layers = static_cast<std::size_t>(stageLayers);
    return micro * layers * ops(Part::Forward).size() +
           (micro - 1) * layers * ops(Part::Backward).size() +
           layers * ops(Part::FinalBackward).size() +
           micro * (ops(Part::PpSendFwd).size() +
                    ops(Part::PpSendBwd).size());
}

IterationShape
LayerGraphBuilder::iterationShape() const
{
    // One device's stream: its pipeline stage's layers, once per
    // micro-batch. With pp == 1 this is the whole model once — the
    // paper's original iteration.
    using Part = IterationShape::Part;
    IterationShape shape;
    shape.microBatches = par_.microBatches;
    shape.stageLayers = hp_.numLayers / par_.ppDegree;
    auto part = [&](Part p) -> std::vector<TrainingOp> & {
        return shape.parts[static_cast<std::size_t>(p)];
    };

    part(Part::Forward) = forwardLayerOps(0);
    if (shape.microBatches > 1)
        part(Part::Backward) = backwardLayerOps(0, false);
    part(Part::FinalBackward) = backwardLayerOps(0, true);
    if (par_.ppDegree > 1) {
        // Each micro-batch's activations cross to the next stage,
        // and its input gradient returns upstream.
        push(part(Part::PpSendFwd),
             commOp(OpRole::PpSendFwd, SubLayer::FeedForward, 0,
                    ppBoundaryBytes()));
        push(part(Part::PpSendBwd),
             commOp(OpRole::PpSendBwd, SubLayer::Attention, 0,
                    ppBoundaryBytes()));
    }
    return shape;
}

std::vector<TrainingOp>
LayerGraphBuilder::iterationOps() const
{
    const IterationShape shape = iterationShape();
    std::vector<TrainingOp> ops;
    ops.reserve(shape.opCount());
    shape.walk([&](IterationShape::Part part, int layer) {
        for (const TrainingOp &op : shape.ops(part)) {
            ops.push_back(op);
            ops.back().layerIndex = layer;
        }
    });
    return ops;
}

std::vector<TrainingOp>
coalesceDpAllReduces(std::vector<TrainingOp> ops, Bytes bucket_bytes)
{
    fatalIf(bucket_bytes < 0.0, "bucket_bytes must be >= 0");
    if (bucket_bytes == 0.0)
        return ops;

    std::vector<TrainingOp> out;
    out.reserve(ops.size());
    Bytes pending = 0.0;
    TrainingOp pending_op;
    bool has_pending = false;

    for (TrainingOp &op : ops) {
        if (op.role != OpRole::DpAllReduce) {
            out.push_back(std::move(op));
            continue;
        }
        pending += op.commBytes;
        pending_op = op;
        has_pending = true;
        if (pending >= bucket_bytes) {
            pending_op.commBytes = pending;
            pending_op.kernel.label = "dp_allreduce_bucket";
            out.push_back(pending_op);
            pending = 0.0;
            has_pending = false;
        }
    }
    if (has_pending) {
        pending_op.commBytes = pending;
        pending_op.kernel.label = "dp_allreduce_bucket";
        out.push_back(pending_op);
    }
    return out;
}

std::vector<TrainingOp>
LayerGraphBuilder::decodeStepOps(std::int64_t context_len) const
{
    fatalIf(context_len < 1, "decode needs a context of >= 1 token");
    fatalIf(hp_.moe.enabled() && par_.epDegree > 1,
            "decode with expert parallelism is not modelled");

    const std::int64_t b = hp_.batchSize;
    const std::int64_t h = hp_.hidden;
    const std::int64_t fc = hp_.fcDim;
    const std::int64_t t = par_.tpDegree;
    const OpRole fwd = OpRole::FwdCompute;
    // One token's activation all-reduce: B * 1 * H elements.
    const Bytes ar_bytes =
        hw::precisionBytes(precision_) * static_cast<double>(b) * h;

    std::vector<TrainingOp> ops;
    for (int layer = 0; layer < hp_.numLayers; ++layer) {
        const SubLayer attn = SubLayer::Attention;
        const SubLayer ffn = SubLayer::FeedForward;

        push(ops, elemOp(fwd, attn, layer, hw::KernelKind::LayerNorm,
                         "ln1_dec", b * h));
        push(ops, gemmOp(fwd, attn, layer, "qkv_dec", b, 3 * h / t, h));
        // Attention over the cache: stream K and V (2 * ctx * H/t
        // elements per sequence) with one MAC per element.
        push(ops, elemOp(fwd, attn, layer, hw::KernelKind::KvAttend,
                         "attend_dec", b * 2 * context_len * h / t));
        push(ops, elemOp(fwd, attn, layer, hw::KernelKind::Softmax,
                         "softmax_dec",
                         b * (hp_.numHeads / t) * context_len));
        push(ops, gemmOp(fwd, attn, layer, "proj_dec", b, h, h / t));
        if (t > 1) {
            push(ops, commOp(OpRole::TpAllReduceFwd, attn, layer,
                             ar_bytes));
        }
        push(ops, elemOp(fwd, ffn, layer, hw::KernelKind::LayerNorm,
                         "ln2_dec", b * h));
        push(ops, gemmOp(fwd, ffn, layer, "fc1_dec", b, fc / t, h));
        push(ops, elemOp(fwd, ffn, layer, hw::KernelKind::Gelu,
                         "gelu_dec", b * fc / t));
        push(ops, gemmOp(fwd, ffn, layer, "fc2_dec", b, h, fc / t));
        if (t > 1) {
            push(ops, commOp(OpRole::TpAllReduceFwd, ffn, layer,
                             ar_bytes));
        }
    }
    return ops;
}

std::vector<TrainingOp>
LayerGraphBuilder::inferenceOps() const
{
    std::vector<TrainingOp> ops;
    for (int l = 0; l < hp_.numLayers; ++l) {
        auto layer_ops = forwardLayerOps(l);
        ops.insert(ops.end(), layer_ops.begin(), layer_ops.end());
    }
    return ops;
}

} // namespace twocs::model
