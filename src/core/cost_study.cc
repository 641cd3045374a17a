#include "cost_study.hh"

#include "core/amdahl.hh"
#include "util/logging.hh"

namespace twocs::core {

CostStudyResult
profilingCostStudy(const SystemConfig &system,
                   const model::Hyperparams &baseline,
                   const SweepSpace &space, int repetitions)
{
    fatalIf(repetitions < 1, "repetitions must be >= 1");

    CostStudyResult result;
    AmdahlAnalysis analysis(system, baseline);
    const profiling::IterationProfiler profiler = system.profiler();

    // --- What the strategy executes. ---
    // One baseline training iteration (TP = 1, single device).
    model::ParallelPlan base_par;
    const model::LayerGraphBuilder base_graph(baseline, base_par);
    const profiling::RoleTotals base_totals =
        profiler.iterationTotals(base_graph);
    result.ledger.recordExecuted("baseline iteration (" + baseline.name +
                                     ")",
                                 base_totals.total, repetitions);

    // The all-reduce calibration sweep (8 payload sizes, 4 GPUs).
    for (Bytes s = 1.0 * 1024 * 1024; s <= 128.0 * 1024 * 1024;
         s *= 2.0) {
        result.ledger.recordExecuted(
            "all-reduce calibration", profiler.collectiveModel()
                                          .cost({ comm::CollectiveKind::AllReduce, s, 4 })
                                          .total,
            repetitions);
    }

    // --- What exhaustive profiling would additionally execute. ---
    for (const SerializedConfig &c : serializedConfigs(space)) {
        const model::LayerGraphBuilder graph =
            analysis.makeGraph(c.hidden, c.seqLen, 1, c.tpDegree);
        const profiling::RoleTotals p = profiler.iterationTotals(graph);
        result.ledger.recordAvoided("H=" + std::to_string(c.hidden) +
                                        " SL=" + std::to_string(c.seqLen) +
                                        " TP=" + std::to_string(c.tpDegree),
                                    p.total, repetitions);
        ++result.configsAvoided;
    }

    result.projectionSpeedup = result.ledger.speedup();

    // --- ROI speedup: skip the forward pass for the slack study. ---
    const Seconds fwd =
        base_totals.time(model::OpRole::FwdCompute);
    const Seconds bwd =
        base_totals.time(model::OpRole::BwdCompute) +
        base_totals.time(model::OpRole::OptimizerStep);
    result.roiSpeedup = (fwd + bwd) / bwd;

    return result;
}

} // namespace twocs::core
