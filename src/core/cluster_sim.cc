#include "cluster_sim.hh"

#include <algorithm>

#include "core/lowering.hh"
#include "sim/graph_cache.hh"
#include "sim/passes.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace twocs::core {

namespace {

void
validateConfig(const ClusterSimConfig &config)
{
    fatalIf(config.tpDegree < 2,
            "cluster simulation needs a TP group of >= 2");
    fatalIf(config.numLayers < 1, "need at least one layer");
    fatalIf(config.computeJitter < 0.0, "jitter must be >= 0");
}

/** Tasks that draw a noise factor during replay: every compute
 *  task, in increasing task id order. An index list instead of a
 *  mask so the per-trial fill is a bulk copy plus the draws, not a
 *  branchy pass over every task. */
std::vector<std::uint32_t>
jitterIndices(const sim::GraphTemplate &graph)
{
    const util::StringInterner::Id compute_tag =
        graph.interner().find("compute");
    std::vector<std::uint32_t> jitterable;
    for (std::size_t i = 0; i < graph.numTasks(); ++i) {
        if (graph.taskTagId(static_cast<sim::TaskId>(i)) ==
            compute_tag)
            jitterable.push_back(static_cast<std::uint32_t>(i));
    }
    return jitterable;
}

/** One jittered replay of a compiled iteration graph with the
 *  jitter drawn from `seed`, aggregated over the lowering's streams
 *  (compute d at 2d, comm d at 2d + 1). */
ClusterSimResult
replayTrial(const sim::GraphTemplate &graph,
            const std::vector<std::uint32_t> &jitter_idx,
            const ClusterSimConfig &config, std::uint64_t seed,
            sim::ReplayScratch &scratch, std::vector<Seconds> &durations)
{
    // The worker arenas are deliberately recycled across runTrials
    // calls with different graphs — the explicit rebind opt-in.
    scratch.bind(graph);
    const std::vector<Seconds> &base = graph.baseDurations();
    durations.assign(base.begin(), base.end());
    Rng rng(seed);
    for (const std::uint32_t i : jitter_idx)
        durations[i] =
            base[i] * rng.noiseFactor(config.computeJitter);
    sim::replay(graph, durations, scratch);

    const int p = config.tpDegree;
    ClusterSimResult r;
    r.iterationTime = scratch.makespan();
    Seconds comm_busy = 0.0, compute_busy = 0.0;
    for (int d = 0; d < p; ++d) {
        compute_busy += scratch.busyTotal(computeStream(d));
        comm_busy += scratch.busyTotal(commStream(d));
    }
    r.computeTimePerDevice = compute_busy / p;
    r.commTimePerDevice = comm_busy / p;
    r.stallTimePerDevice = r.iterationTime - r.computeTimePerDevice -
                           r.commTimePerDevice;
    if (r.stallTimePerDevice < 0.0)
        r.stallTimePerDevice = 0.0;
    return r;
}

/** The model and plan instantiated for `config`. */
model::LayerGraphBuilder
layerGraph(const model::Hyperparams &baseline, hw::Precision precision,
           const ClusterSimConfig &config)
{
    model::Hyperparams hp = baseline.withHidden(config.hidden)
                                .withSequenceLength(config.seqLen)
                                .withBatchSize(config.batch)
                                .withCompatibleHeads(config.tpDegree);
    hp.numLayers = config.numLayers;
    model::ParallelPlan par = config.plan;
    par.tpDegree = config.tpDegree;
    return model::LayerGraphBuilder(hp, par, precision);
}

/** Lower, compile and run config.passes, bypassing the cache. */
std::shared_ptr<const sim::GraphTemplate>
compileUncached(const model::LayerGraphBuilder &graph,
                const ClusterSimConfig &config)
{
    LoweringOptions options;
    options.devices = config.tpDegree;
    const std::shared_ptr<const sim::GraphTemplate> lowered =
        lowerIteration(graph, config.system, options).compile();
    return sim::PassPipeline::parse(config.passes).apply(lowered);
}

} // namespace

ClusterSim::ClusterSim(model::Hyperparams baseline,
                       hw::Precision precision)
    : baseline_(std::move(baseline)), precision_(precision)
{
}

ClusterSimResult
ClusterSim::run(const ClusterSimConfig &config) const
{
    validateConfig(config);
    // The uncached rebuild (the Monte Carlo test oracle): the jitter
    // is drawn at replay, exactly as runTrials() draws it.
    const std::shared_ptr<const sim::GraphTemplate> graph =
        compileUncached(layerGraph(baseline_, precision_, config),
                        config);
    sim::ReplayScratch scratch;
    std::vector<Seconds> durations;
    return replayTrial(*graph, jitterIndices(*graph), config, config.seed,
                       scratch, durations);
}

std::shared_ptr<const sim::GraphTemplate>
ClusterSim::compileIteration(const ClusterSimConfig &config) const
{
    validateConfig(config);
    // The cache key covers exactly what the lowering reads into the
    // graph's shape and base durations: the derived hyperparameters,
    // the plan, the system under study, the precision, and the pass
    // pipeline. Seeds and jitter are replay inputs, not compile
    // inputs, and stay out of the key.
    const model::LayerGraphBuilder graph =
        layerGraph(baseline_, precision_, config);
    const std::string key =
        "cluster|" + graph.hyperparams().fingerprint() +
        "|plan=" + graph.parallel().summary() +
        "|sys=" + config.system.fingerprint() +
        "|prec=" + hw::precisionName(precision_) +
        "|passes=" + config.passes;
    return sim::GraphCache::instance()
        .getOrCompile(key,
                      [&] {
                          return sim::GraphCache::Compiled{
                              compileUncached(graph, config), nullptr };
                      })
        .graph;
}

ClusterTrialSummary
ClusterSim::runTrials(const ClusterSimConfig &config, int num_trials,
                      const exec::RunnerOptions &runner_options) const
{
    fatalIf(num_trials < 1, "need at least one trial");
    validateConfig(config);

    std::vector<std::uint64_t> seeds(static_cast<std::size_t>(num_trials));
    for (int i = 0; i < num_trials; ++i) {
        // splitmix-derived per-trial seeds: config.seed + i would
        // make base seeds s and s + 1 share almost all of their
        // trial streams.
        seeds[i] = splitmixSeed(config.seed, static_cast<std::uint64_t>(i));
    }

    exec::RunnerOptions options = runner_options;
    if (options.study == "study")
        options.study = "cluster_trials";
    exec::ParallelSweepRunner runner(options);

    // Compile once; each trial only fills a duration vector and
    // replays.
    const std::shared_ptr<const sim::GraphTemplate> graph =
        compileIteration(config);
    const std::vector<std::uint32_t> jitterable = jitterIndices(*graph);

    ClusterTrialSummary summary;
    summary.trials =
        runner.map(seeds, [&](std::uint64_t seed) {
            // One arena per worker thread, reused across the trials
            // that worker executes: the per-trial work is a duration
            // fill + one allocation-free replay.
            thread_local sim::ReplayScratch scratch;
            thread_local std::vector<Seconds> durations;
            return replayTrial(*graph, jitterable, config, seed, scratch,
                               durations);
        });

    for (const ClusterSimResult &r : summary.trials) {
        summary.meanIterationTime += r.iterationTime;
        summary.worstIterationTime =
            std::max(summary.worstIterationTime, r.iterationTime);
    }
    summary.meanIterationTime /= static_cast<double>(num_trials);
    return summary;
}

} // namespace twocs::core
