#include "profiler.hh"

#include "util/logging.hh"

namespace twocs::profiling {

comm::CollectiveDesc
collectiveDescFor(const model::TrainingOp &op,
                  const model::ParallelPlan &par)
{
    panicIf(!op.isComm(), "collectiveDescFor() on a compute op");

    comm::CollectiveDesc desc;
    desc.bytes = op.commBytes;
    switch (op.role) {
      case model::OpRole::TpAllReduceFwd:
      case model::OpRole::TpAllReduceBwd:
        desc.kind = comm::CollectiveKind::AllReduce;
        desc.participants = par.tpDegree;
        break;
      case model::OpRole::DpAllReduce:
        desc.kind = comm::CollectiveKind::AllReduce;
        desc.participants = par.dpDegree;
        break;
      case model::OpRole::DpReduceScatter:
        desc.kind = comm::CollectiveKind::ReduceScatter;
        desc.participants = par.dpDegree;
        break;
      case model::OpRole::DpAllGather:
      case model::OpRole::ZeroParamAllGather:
        desc.kind = comm::CollectiveKind::AllGather;
        desc.participants = par.dpDegree;
        break;
      case model::OpRole::EpAllToAll:
        desc.kind = comm::CollectiveKind::AllToAll;
        desc.participants = par.epDegree;
        break;
      case model::OpRole::PpSendFwd:
      case model::OpRole::PpSendBwd:
        desc.kind = comm::CollectiveKind::PointToPoint;
        desc.participants = 2;
        break;
      default:
        panic("comm op '", op.kernel.label, "' has no collective");
    }
    panicIf(desc.participants < 2,
            "comm op '", op.kernel.label,
            "' with fewer than two participants");
    return desc;
}

namespace {

Seconds
sumRoles(const RoleTotals &totals, const auto &roles)
{
    Seconds t = 0.0;
    for (model::OpRole role : roles)
        t += totals.time(role);
    return t;
}

} // namespace

Seconds
RoleTotals::computeTime() const
{
    return sumRoles(*this, model::computeRoles);
}

Seconds
RoleTotals::serializedCommTime() const
{
    return sumRoles(*this, model::serializedCommRoles);
}

Seconds
RoleTotals::dpCommTime() const
{
    return sumRoles(*this, model::dpCommRoles);
}

void
Profile::add(ProfileRecord record)
{
    totals_.add(record.role, record.duration);
    records_.push_back(std::move(record));
}

std::vector<ProfileRecord>
Profile::byLabel(const std::string &label) const
{
    std::vector<ProfileRecord> out;
    for (const auto &r : records_) {
        if (r.label == label)
            out.push_back(r);
    }
    return out;
}

const ProfileRecord &
Profile::find(const std::string &label, int layer_index) const
{
    for (const auto &r : records_) {
        if (r.label == label && r.layerIndex == layer_index)
            return r;
    }
    fatal("profile has no record '", label, "' in layer ", layer_index);
}

IterationProfiler::IterationProfiler(hw::KernelCostModel kernel_model,
                                     comm::CollectiveModel collective_model)
    : kernelModel_(std::move(kernel_model)),
      collectiveModel_(std::move(collective_model))
{
}

Seconds
IterationProfiler::opDuration(const model::TrainingOp &op,
                              const model::ParallelPlan &par) const
{
    return op.isComm() ? collectiveModel_.cost(collectiveDescFor(op, par))
                             .total
                       : kernelModel_.cost(op.kernel);
}

ProfileRecord
IterationProfiler::profileOp(const model::TrainingOp &op,
                             const model::ParallelPlan &par) const
{
    ProfileRecord r;
    r.label = op.kernel.label;
    r.role = op.role;
    r.subLayer = op.subLayer;
    r.layerIndex = op.layerIndex;
    r.duration = opDuration(op, par);

    if (op.isComm()) {
        r.bytes = op.commBytes;
        r.elems = 0;
    } else {
        r.flops = op.kernel.flops();
        r.bytes = op.kernel.bytes();
        r.kernelKind = op.kernel.kind;
        r.gemm = op.kernel.gemm;
        r.elems = op.kernel.elems;
    }
    return r;
}

Profile
IterationProfiler::profileOps(const std::vector<model::TrainingOp> &ops,
                              const model::ParallelPlan &par) const
{
    Profile p;
    for (const model::TrainingOp &op : ops)
        p.add(profileOp(op, par));
    return p;
}

Profile
IterationProfiler::profileIteration(
    const model::LayerGraphBuilder &graph) const
{
    return profileOps(graph.iterationOps(), graph.parallel());
}

RoleTotals
IterationProfiler::iterationTotals(
    const model::LayerGraphBuilder &graph) const
{
    const model::ParallelPlan &par = graph.parallel();
    RoleTotals totals;
    graph.iterationShape().foldCosts(
        [&](const model::TrainingOp &op) { return opDuration(op, par); },
        [&](model::OpRole role, Seconds t) { totals.add(role, t); });
    return totals;
}

Profile
IterationProfiler::profileLayer(const model::LayerGraphBuilder &graph,
                                int layer_index) const
{
    std::vector<model::TrainingOp> ops =
        graph.forwardLayerOps(layer_index);
    std::vector<model::TrainingOp> bwd =
        graph.backwardLayerOps(layer_index);
    ops.insert(ops.end(), bwd.begin(), bwd.end());
    return profileOps(ops, graph.parallel());
}

} // namespace twocs::profiling
