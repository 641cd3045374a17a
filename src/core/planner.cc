#include "planner.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "analytic/pipeline.hh"
#include "profiling/profiler.hh"
#include "profiling/roi.hh"
#include "util/logging.hh"

namespace twocs::core {

LayoutPlanner::LayoutPlanner(SystemConfig system, model::Hyperparams hp,
                             hw::Precision precision)
    : system_(std::move(system)), hp_(std::move(hp)),
      precision_(precision)
{
    hp_.validate();
}

LayoutPlanner::LayerCost
LayoutPlanner::costLayer(int tp, int dp, bool recompute) const
{
    model::ParallelPlan par;
    par.tpDegree = tp;
    par.dpDegree = dp;
    const model::LayerGraphBuilder graph(
        hp_.withCompatibleHeads(tp), par, precision_,
        /*include_optimizer=*/true, /*fuse_elementwise=*/true,
        recompute);
    const profiling::Profile layer =
        system_.profiler().profileLayer(graph, 0);

    LayerCost cost;
    cost.time = layer.totalTime();
    cost.serializedCommTime = layer.serializedCommTime();
    if (dp > 1) {
        // The layer profile already holds the backward GEMMs and the
        // DP all-reduces the slack ROI isolates.
        const profiling::SlackRoi slack =
            profiling::layerSlackRoiFromRecords(layer.records());
        cost.slackDpCommTime = slack.dpCommTime;
        cost.slackBackpropTime = slack.backpropComputeTime;
    }
    return cost;
}

LayoutCandidate
LayoutPlanner::evaluate(int tp, int dp, int pp, bool recompute,
                        const PlannerOptions &options) const
{
    fatalIf(tp < 1 || dp < 1 || pp < 1,
            "layout degrees must be >= 1");
    fatalIf(pp > hp_.numLayers,
            "pipeline stages (", pp, ") exceed layer count (",
            hp_.numLayers, ")");
    return assemble(tp, dp, pp, recompute,
                    costLayer(tp, dp, recompute), options);
}

LayoutCandidate
LayoutPlanner::assemble(int tp, int dp, int pp, bool recompute,
                        const LayerCost &layer,
                        const PlannerOptions &options) const
{
    LayoutCandidate c;
    c.tpDegree = tp;
    c.dpDegree = dp;
    c.pipelineStages = pp;
    c.recompute = recompute;

    const model::Hyperparams hp = hp_.withCompatibleHeads(tp);
    model::ParallelPlan par;
    par.tpDegree = tp;
    par.dpDegree = dp;

    // --- Memory: one pipeline stage's share of the model. ---
    model::Hyperparams stage_hp = hp;
    stage_hp.numLayers =
        (hp.numLayers + pp - 1) / pp; // ceil division
    model::MemoryOptions mem_opts;
    mem_opts.activationCheckpointing = recompute;
    const model::MemoryModel mem(stage_hp, par, precision_, mem_opts);
    c.memoryPerDevice = mem.perDeviceFootprint().total();
    c.fitsInMemory = c.memoryPerDevice <=
                     options.memoryUsableFraction *
                         system_.effectiveDevice().memCapacity;

    // --- One micro-batch through one stage. ---
    const Seconds stage_micro_time = layer.time * stage_hp.numLayers;

    // --- Pipeline fill/drain and p2p hops. ---
    analytic::PipelineConfig pipe;
    pipe.stages = pp;
    pipe.microBatches = options.microBatches;
    const analytic::PipelineCost pipe_cost = analytic::pipelineCost(
        hp, pipe, system_.effectiveDevice().link, precision_);
    c.bubbleFraction = pipe_cost.bubbleFraction;
    c.iterationTime = analytic::pipelineIterationTime(
        stage_micro_time, pipe, pipe_cost.p2pTimePerTransfer);

    c.serializedCommTime = layer.serializedCommTime *
                           stage_hp.numLayers * options.microBatches;

    // --- DP gradient traffic hidden by backprop slack. ---
    if (dp > 1) {
        // Gradients all-reduce once per iteration; the hiding budget
        // is the whole backward pass (all micro-batches).
        const Seconds dp_comm =
            layer.slackDpCommTime * stage_hp.numLayers;
        const Seconds hiding_budget = layer.slackBackpropTime *
                                      stage_hp.numLayers *
                                      options.microBatches;
        c.exposedDpCommTime = std::max(0.0, dp_comm - hiding_budget);
        c.iterationTime += c.exposedDpCommTime;
    }

    // --- Throughput. ---
    const double tokens_per_iter =
        static_cast<double>(hp.batchSize) * hp.sequenceLength *
        options.microBatches * dp;
    c.tokensPerSecond = tokens_per_iter / c.iterationTime;
    return c;
}

std::vector<LayoutCandidate>
LayoutPlanner::enumerate(const PlannerOptions &options) const
{
    std::vector<LayoutCandidate> out;
    for (int tp = 1; tp <= options.maxTpDegree; tp *= 2) {
        if (hp_.hidden % tp != 0 || hp_.fcDim % tp != 0)
            continue;
        // The layer profile does not depend on pp: take it once per
        // (dp, recompute) and share it across pipeline depths.
        std::map<std::pair<int, bool>, LayerCost> layers;
        for (int pp = 1; pp <= options.maxPipelineStages; pp *= 2) {
            if (pp > hp_.numLayers)
                break;
            for (int dp = 1; tp * pp * dp <= options.maxDevices;
                 dp *= 2) {
                for (int rc = 0; rc <= (options.allowRecompute ? 1 : 0);
                     ++rc) {
                    const bool recompute = rc != 0;
                    const auto [it, fresh] =
                        layers.try_emplace({ dp, recompute });
                    if (fresh)
                        it->second = costLayer(tp, dp, recompute);
                    const LayoutCandidate c = assemble(
                        tp, dp, pp, recompute, it->second, options);
                    if (c.fitsInMemory)
                        out.push_back(c);
                }
            }
        }
    }
    std::sort(out.begin(), out.end(),
              [](const LayoutCandidate &a, const LayoutCandidate &b) {
                  return a.tokensPerSecond > b.tokensPerSecond;
              });
    return out;
}

LayoutCandidate
LayoutPlanner::best(const PlannerOptions &options) const
{
    const auto all = enumerate(options);
    fatalIf(all.empty(),
            hp_.name, " has no memory-feasible layout within ",
            options.maxDevices, " devices");
    return all.front();
}

} // namespace twocs::core
