#include "amdahl.hh"

#include "util/logging.hh"

namespace twocs::core {

namespace {

model::LayerGraphBuilder
baselineGraph(const model::Hyperparams &hp, hw::Precision precision)
{
    model::ParallelPlan par;
    par.tpDegree = 1;
    par.dpDegree = 1;
    return model::LayerGraphBuilder(hp, par, precision);
}

} // namespace

AmdahlAnalysis::AmdahlAnalysis(const SystemConfig &system,
                               model::Hyperparams baseline,
                               hw::Precision precision)
    : system_(system), baseline_(std::move(baseline)),
      precision_(precision), profiler_(system.profiler()),
      scalingModel_(opmodel::OperatorScalingModel::calibrate(
          profiler_, baselineGraph(baseline_, precision_)))
{
}

model::LayerGraphBuilder
AmdahlAnalysis::makeGraph(std::int64_t hidden, std::int64_t seq_len,
                          std::int64_t batch, int tp_degree) const
{
    model::ParallelPlan par;
    par.tpDegree = tp_degree;
    par.dpDegree = 1;
    return makeGraph(hidden, seq_len, batch, par);
}

model::LayerGraphBuilder
AmdahlAnalysis::makeGraph(std::int64_t hidden, std::int64_t seq_len,
                          std::int64_t batch,
                          const model::ParallelPlan &plan) const
{
    const model::Hyperparams hp =
        baseline_.withHidden(hidden)
            .withSequenceLength(seq_len)
            .withBatchSize(batch)
            .withCompatibleHeads(plan.tpDegree);
    return model::LayerGraphBuilder(hp, plan, precision_);
}

AmdahlPoint
AmdahlAnalysis::evaluate(std::int64_t hidden, std::int64_t seq_len,
                         std::int64_t batch, int tp_degree) const
{
    model::ParallelPlan par;
    par.tpDegree = tp_degree;
    par.dpDegree = 1;
    return evaluate(hidden, seq_len, batch, par);
}

AmdahlPoint
AmdahlAnalysis::evaluate(std::int64_t hidden, std::int64_t seq_len,
                         std::int64_t batch,
                         const model::ParallelPlan &plan) const
{
    const model::LayerGraphBuilder graph =
        makeGraph(hidden, seq_len, batch, plan);
    const opmodel::ProjectedBreakdown pb =
        scalingModel_.projectIteration(graph);

    AmdahlPoint p;
    p.hidden = hidden;
    p.seqLen = seq_len;
    p.batch = batch;
    p.tpDegree = plan.tpDegree;
    p.plan = plan;
    p.computeTime = pb.computeTime();
    p.serializedCommTime = pb.serializedComm;
    return p;
}

AmdahlPoint
AmdahlAnalysis::evaluateDirect(std::int64_t hidden, std::int64_t seq_len,
                               std::int64_t batch, int tp_degree) const
{
    model::ParallelPlan par;
    par.tpDegree = tp_degree;
    par.dpDegree = 1;
    return evaluateDirect(hidden, seq_len, batch, par);
}

AmdahlPoint
AmdahlAnalysis::evaluateDirect(std::int64_t hidden,
                               std::int64_t seq_len,
                               std::int64_t batch,
                               const model::ParallelPlan &plan) const
{
    const model::LayerGraphBuilder graph =
        makeGraph(hidden, seq_len, batch, plan);
    const profiling::RoleTotals prof = profiler_.iterationTotals(graph);

    AmdahlPoint p;
    p.hidden = hidden;
    p.seqLen = seq_len;
    p.batch = batch;
    p.tpDegree = plan.tpDegree;
    p.plan = plan;
    p.computeTime = prof.computeTime();
    p.serializedCommTime = prof.serializedCommTime();
    return p;
}

} // namespace twocs::core
