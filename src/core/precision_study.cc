#include "precision_study.hh"

#include "model/layer_graph.hh"
#include "profiling/profiler.hh"

namespace twocs::core {

std::vector<PrecisionPoint>
precisionStudy(const SystemConfig &system, std::int64_t hidden,
               std::int64_t seq_len, std::int64_t batch, int tp_degree,
               const std::vector<hw::Precision> &precisions,
               const model::Hyperparams &baseline)
{
    const profiling::IterationProfiler profiler = system.profiler();
    const model::Hyperparams hp = baseline.withHidden(hidden)
                                      .withSequenceLength(seq_len)
                                      .withBatchSize(batch)
                                      .withCompatibleHeads(tp_degree);
    model::ParallelPlan par;
    par.tpDegree = tp_degree;

    std::vector<PrecisionPoint> points;
    points.reserve(precisions.size());
    for (hw::Precision prec : precisions) {
        const model::LayerGraphBuilder graph(hp, par, prec);
        const profiling::RoleTotals profile =
            profiler.iterationTotals(graph);
        PrecisionPoint p;
        p.precision = prec;
        p.computeTime = profile.computeTime();
        p.serializedCommTime = profile.serializedCommTime();
        points.push_back(p);
    }
    return points;
}

} // namespace twocs::core
