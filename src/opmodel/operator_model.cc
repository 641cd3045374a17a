#include "operator_model.hh"

#include <array>

#include "util/logging.hh"
#include "util/stats.hh"

namespace twocs::opmodel {

double
OperatorScalingModel::predictorFor(const model::TrainingOp &op)
{
    if (op.isComm())
        return op.commBytes;
    if (op.kernel.kind == hw::KernelKind::Gemm)
        return op.kernel.flops();
    return static_cast<double>(op.kernel.elems);
}

OperatorScalingModel
OperatorScalingModel::calibrate(const profiling::IterationProfiler &profiler,
                                const model::LayerGraphBuilder &baseline,
                                Bytes ar_calib_bytes,
                                int ar_calib_participants)
{
    OperatorScalingModel m;

    // Compute operators: profile one representative layer.
    const model::ParallelPlan &par = baseline.parallel();
    std::vector<model::TrainingOp> ops = baseline.forwardLayerOps(0);
    std::vector<model::TrainingOp> bwd = baseline.backwardLayerOps(0);
    ops.insert(ops.end(), bwd.begin(), bwd.end());

    for (const model::TrainingOp &op : ops) {
        if (op.isComm())
            continue;
        const profiling::ProfileRecord rec = profiler.profileOp(op, par);
        const double pred = predictorFor(op);
        panicIf(pred <= 0.0,
                "operator '", op.kernel.label, "' has a zero predictor");
        const auto [it, inserted] = m.computeBaselines_.emplace(
            op.kernel.label, BaselinePoint{ rec.duration, pred });
        panicIf(!inserted && it->second.predictor != pred,
                "duplicate operator label '", op.kernel.label,
                "' with different shapes in one layer");
    }

    // Communication: one all-reduce measurement, projected linearly
    // in payload size (Figure 15(c) methodology).
    fatalIf(ar_calib_bytes <= 0.0, "AR calibration size must be > 0");
    fatalIf(ar_calib_participants < 2,
            "AR calibration needs >= 2 participants");
    const comm::CollectiveCost ar = profiler.collectiveModel().cost({ comm::CollectiveKind::AllReduce, ar_calib_bytes, ar_calib_participants });
    m.allReduceBaseline_ = { ar.total, ar_calib_bytes };

    const comm::CollectiveCost a2a =
        profiler.collectiveModel().cost({ comm::CollectiveKind::AllToAll, ar_calib_bytes, ar_calib_participants });
    m.allToAllBaseline_ = { a2a.total, ar_calib_bytes };

    return m;
}

OperatorScalingModel
OperatorScalingModel::calibrateFitted(
    const profiling::IterationProfiler &profiler,
    const model::LayerGraphBuilder &baseline,
    const std::vector<model::Hyperparams> &sweep_points,
    const std::vector<Bytes> &ar_sweep_bytes, int ar_calib_participants)
{
    fatalIf(ar_sweep_bytes.empty(),
            "calibrateFitted() needs an all-reduce sweep");
    fatalIf(ar_calib_participants < 2,
            "AR calibration needs >= 2 participants");

    // Gather (predictor, duration) samples per operator label over
    // the baseline plus every sweep point.
    std::map<std::string, std::pair<std::vector<double>,
                                    std::vector<double>>>
        samples;
    std::vector<model::Hyperparams> points = sweep_points;
    points.push_back(baseline.hyperparams());
    for (const model::Hyperparams &hp : points) {
        const model::LayerGraphBuilder graph(
            hp, baseline.parallel(), baseline.precision());
        std::vector<model::TrainingOp> ops = graph.forwardLayerOps(0);
        std::vector<model::TrainingOp> bwd = graph.backwardLayerOps(0);
        ops.insert(ops.end(), bwd.begin(), bwd.end());
        for (const model::TrainingOp &op : ops) {
            if (op.isComm())
                continue;
            const profiling::ProfileRecord rec =
                profiler.profileOp(op, graph.parallel());
            auto &[preds, times] = samples[op.kernel.label];
            preds.push_back(predictorFor(op));
            times.push_back(rec.duration);
        }
    }

    OperatorScalingModel m;
    for (auto &[label, pt] : samples) {
        const LinearFit fit = fitProportional(pt.first, pt.second);
        // Store the fitted slope as a unit-predictor baseline so
        // projectOp()'s ratio form evaluates slope * predictor.
        m.computeBaselines_.emplace(label,
                                    BaselinePoint{ fit.slope, 1.0 });
    }

    // Fit the collectives across the payload sweep.
    std::vector<double> sizes, ar_times, a2a_times;
    for (Bytes s : ar_sweep_bytes) {
        sizes.push_back(s);
        ar_times.push_back(
            profiler.collectiveModel()
                .cost({ comm::CollectiveKind::AllReduce, s, ar_calib_participants })
                .total);
        a2a_times.push_back(profiler.collectiveModel()
                                .cost({ comm::CollectiveKind::AllToAll, s, ar_calib_participants })
                                .total);
    }
    m.allReduceBaseline_ = { fitProportional(sizes, ar_times).slope,
                             1.0 };
    m.allToAllBaseline_ = { fitProportional(sizes, a2a_times).slope,
                            1.0 };
    return m;
}

OperatorScalingModel
OperatorScalingModel::fromBaselines(
    std::map<std::string, BaselinePoint> compute,
    BaselinePoint all_reduce, BaselinePoint all_to_all)
{
    fatalIf(compute.empty(),
            "fromBaselines() needs at least one compute operator");
    for (const auto &[label, point] : compute) {
        fatalIf(point.duration <= 0.0 || point.predictor <= 0.0,
                "baseline for '", label, "' must be positive");
    }
    fatalIf(all_reduce.duration <= 0.0 || all_reduce.predictor <= 0.0,
            "all-reduce baseline must be positive");
    fatalIf(all_to_all.duration <= 0.0 || all_to_all.predictor <= 0.0,
            "all-to-all baseline must be positive");

    OperatorScalingModel m;
    m.computeBaselines_ = std::move(compute);
    m.allReduceBaseline_ = all_reduce;
    m.allToAllBaseline_ = all_to_all;
    return m;
}

Seconds
OperatorScalingModel::projectOp(const model::TrainingOp &op) const
{
    const double pred = predictorFor(op);
    if (op.isComm()) {
        const BaselinePoint &base = op.role == model::OpRole::EpAllToAll
                                        ? allToAllBaseline_
                                        : allReduceBaseline_;
        return base.duration * pred / base.predictor;
    }

    const auto it = computeBaselines_.find(op.kernel.label);
    fatalIf(it == computeBaselines_.end(),
            "no baseline for operator '", op.kernel.label,
            "'; was the baseline profiled with the same layer shape?");
    return it->second.duration * pred / it->second.predictor;
}

ProjectedBreakdown
OperatorScalingModel::projectIteration(
    const model::LayerGraphBuilder &target) const
{
    ProjectedBreakdown pb;
    std::array<Seconds *, model::numOpRoles> bucket{};
    bucket[model::roleIndex(model::OpRole::FwdCompute)] = &pb.fwdCompute;
    bucket[model::roleIndex(model::OpRole::BwdCompute)] = &pb.bwdCompute;
    bucket[model::roleIndex(model::OpRole::OptimizerStep)] =
        &pb.optimizer;
    for (model::OpRole role : model::serializedCommRoles)
        bucket[model::roleIndex(role)] = &pb.serializedComm;
    for (model::OpRole role : model::dpCommRoles)
        bucket[model::roleIndex(role)] = &pb.dpComm;

    // Each bucket sums its ops in issue order, as a fold over
    // projectOp() of every iterationOps() entry would.
    target.iterationShape().foldCosts(
        [&](const model::TrainingOp &op) { return projectOp(op); },
        [&](model::OpRole role, Seconds t) {
            *bucket[model::roleIndex(role)] += t;
        });
    return pb;
}

} // namespace twocs::opmodel
