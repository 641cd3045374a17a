#include "cluster_sim.hh"

#include <algorithm>

#include "comm/ring_sim.hh"
#include "model/layer_graph.hh"
#include "profiling/profiler.hh"
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

/**
 * Build the iteration graph for one TP group. When `rng` is non-null
 * every compute task's duration is perturbed in place (run()'s
 * from-scratch path); with a null rng the graph carries base
 * durations, ready to be compiled into a template whose replay
 * applies the same noise factors to the same tasks in the same
 * order — the two paths are bit-identical by construction.
 */
void
buildIteration(const ClusterSimConfig &config,
               const model::Hyperparams &baseline,
               hw::Precision precision, sim::EventSimulator &des,
               std::vector<sim::ResourceId> &compute,
               std::vector<sim::ResourceId> &comm, Rng *rng)
{
    const int p = config.tpDegree;
    model::Hyperparams hp = baseline.withHidden(config.hidden)
                                .withSequenceLength(config.seqLen)
                                .withBatchSize(config.batch)
                                .withCompatibleHeads(p);
    hp.numLayers = config.numLayers;
    model::ParallelPlan par = config.plan;
    par.tpDegree = p;
    const model::LayerGraphBuilder graph(hp, par, precision);
    const hw::KernelCostModel kernels = config.system.kernelModel();
    const hw::Topology topo = config.system.topology();
    const comm::CollectiveModel coll = config.system.collectiveModel();

    compute.resize(p);
    comm.resize(p);
    for (int d = 0; d < p; ++d) {
        compute[d] = des.addResource("compute" + std::to_string(d));
        comm[d] = des.addResource("comm" + std::to_string(d));
    }

    std::vector<sim::TaskId> last(p, sim::InvalidTask);

    for (const model::TrainingOp &op : graph.iterationOps()) {
        if (op.isComm()) {
            const bool tp_ring =
                op.role == model::OpRole::TpAllReduceFwd ||
                op.role == model::OpRole::TpAllReduceBwd;
            if (!tp_ring) {
                // Plan collectives outside the explicit TP group
                // (DP/ZeRO shard traffic, PP boundary sends, MoE
                // all-to-alls): each device serializes the
                // closed-form collective cost on its comm stream.
                const Seconds dur =
                    coll.cost(profiling::collectiveDescFor(op, par))
                        .total;
                for (int d = 0; d < p; ++d) {
                    std::vector<sim::TaskId> deps;
                    if (last[d] != sim::InvalidTask)
                        deps.push_back(last[d]);
                    last[d] = des.addTask(op.kernel.label, "plan_coll",
                                          comm[d], dur, deps);
                }
                continue;
            }
            // Explicit ring all-reduce across the group; step
            // timing shares comm::ringStepTime's pinned per-ring
            // share semantics.
            const Seconds step_time = comm::ringStepTime(
                topo, op.commBytes, p, config.system.linkEfficiency);
            const int steps = 2 * (p - 1);

            std::vector<sim::TaskId> prev = last;
            for (int s = 0; s < steps; ++s) {
                std::vector<sim::TaskId> cur(p);
                for (int d = 0; d < p; ++d) {
                    std::vector<sim::TaskId> deps;
                    if (prev[d] != sim::InvalidTask)
                        deps.push_back(prev[d]);
                    const int upstream = (d + p - 1) % p;
                    if (prev[upstream] != sim::InvalidTask)
                        deps.push_back(prev[upstream]);
                    cur[d] = des.addTask(op.kernel.label, "ring_step",
                                         comm[d], step_time, deps);
                }
                prev = std::move(cur);
            }
            last = std::move(prev);
        } else {
            const Seconds base = kernels.cost(op.kernel);
            for (int d = 0; d < p; ++d) {
                const Seconds dur =
                    rng != nullptr
                        ? base * rng->noiseFactor(config.computeJitter)
                        : base;
                std::vector<sim::TaskId> deps;
                if (last[d] != sim::InvalidTask)
                    deps.push_back(last[d]);
                last[d] = des.addTask(op.kernel.label, "compute",
                                      compute[d], dur, deps);
            }
        }
    }
}

/** Aggregate one simulated iteration exactly the way run()'s
 *  Schedule-based path does: same per-resource sums in the same
 *  order, so replay and rebuild agree to the last bit. */
template <typename BusyFn>
ClusterSimResult
aggregate(Seconds makespan, int p,
          const std::vector<sim::ResourceId> &compute,
          const std::vector<sim::ResourceId> &comm, BusyFn &&busy)
{
    ClusterSimResult r;
    r.iterationTime = makespan;
    Seconds comm_busy = 0.0, compute_busy = 0.0;
    for (int d = 0; d < p; ++d) {
        compute_busy += busy(compute[d]);
        comm_busy += busy(comm[d]);
    }
    r.computeTimePerDevice = compute_busy / p;
    r.commTimePerDevice = comm_busy / p;
    r.stallTimePerDevice = r.iterationTime - r.computeTimePerDevice -
                           r.commTimePerDevice;
    if (r.stallTimePerDevice < 0.0)
        r.stallTimePerDevice = 0.0;
    return r;
}

/** Tasks that draw a noise factor during replay, in increasing task
 *  id order: exactly the tasks run()'s rebuild path perturbs, in
 *  the order it draws for them. An index list instead of a mask so
 *  the per-trial fill is a bulk copy plus the draws, not a branchy
 *  pass over every task. */
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

/** One jittered replay of a compiled iteration graph, aggregated
 *  exactly like run()'s rebuild path. Resource ids are the builder's:
 *  compute d and comm d interleave as 2d / 2d + 1. */
ClusterSimResult
replayTrial(const sim::GraphTemplate &graph,
            const std::vector<std::uint32_t> &jitter_idx,
            const ClusterSimConfig &config, sim::ReplayScratch &scratch,
            std::vector<Seconds> &durations)
{
    // The worker arenas are deliberately recycled across runTrials
    // calls with different graphs — the explicit rebind opt-in.
    scratch.bind(graph);
    const std::vector<Seconds> &base = graph.baseDurations();
    durations.assign(base.begin(), base.end());
    Rng rng(config.seed);
    for (const std::uint32_t i : jitter_idx)
        durations[i] =
            base[i] * rng.noiseFactor(config.computeJitter);
    sim::replay(graph, durations, scratch);

    // Reused across a worker's trials, like the caller's buffers —
    // a trial stays allocation-free in steady state.
    const int p = config.tpDegree;
    thread_local std::vector<sim::ResourceId> compute, comm;
    compute.resize(p);
    comm.resize(p);
    for (int d = 0; d < p; ++d) {
        compute[d] = 2 * d;
        comm[d] = 2 * d + 1;
    }
    return aggregate(scratch.makespan(), p, compute, comm,
                     [&](sim::ResourceId r) {
                         return scratch.busyTotal(r);
                     });
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

    if (!config.passes.empty()) {
        // A pass-rewritten graph only exists in compiled form, so
        // this path is compile + one jittered replay; the jitter
        // draws happen in compiled task order either way, keeping
        // run() and a one-trial runTrials() identical.
        const std::shared_ptr<const sim::GraphTemplate> graph =
            compileIteration(config);
        sim::ReplayScratch scratch;
        std::vector<Seconds> durations;
        return replayTrial(*graph, jitterIndices(*graph), config,
                           scratch, durations);
    }

    Rng rng(config.seed);
    sim::EventSimulator des;
    std::vector<sim::ResourceId> compute, comm;
    buildIteration(config, baseline_, precision_, des, compute, comm,
                   &rng);

    const sim::Schedule sched = des.run();
    return aggregate(sched.makespan(), config.tpDegree, compute, comm,
                     [&](sim::ResourceId r) {
                         return sched.busyTime(r);
                     });
}

std::shared_ptr<const sim::GraphTemplate>
ClusterSim::compileIteration(const ClusterSimConfig &config) const
{
    validateConfig(config);
    // The cache key covers exactly what buildIteration() reads into
    // the graph's shape and base durations: the derived
    // hyperparameters (the same overrides buildIteration applies),
    // the plan, the system under study, the precision, and the pass
    // pipeline. Seeds and jitter are replay inputs, not compile
    // inputs, and stay out of the key.
    model::Hyperparams hp =
        baseline_.withHidden(config.hidden)
            .withSequenceLength(config.seqLen)
            .withBatchSize(config.batch)
            .withCompatibleHeads(config.tpDegree);
    hp.numLayers = config.numLayers;
    model::ParallelPlan par = config.plan;
    par.tpDegree = config.tpDegree;
    const std::string key =
        "cluster|" + hp.fingerprint() + "|plan=" + par.summary() +
        "|sys=" + config.system.fingerprint() +
        "|prec=" + hw::precisionName(precision_) +
        "|passes=" + config.passes;

    const sim::GraphCache::Compiled cached =
        sim::GraphCache::instance().getOrCompile(key, [&] {
            sim::EventSimulator des;
            std::vector<sim::ResourceId> compute, comm;
            buildIteration(config, baseline_, precision_, des,
                           compute, comm, nullptr);
            sim::GraphCache::Compiled out;
            out.graph = sim::PassPipeline::parse(config.passes)
                            .apply(des.compile());
            return out;
        });
    return cached.graph;
}

ClusterTrialSummary
ClusterSim::runTrials(const ClusterSimConfig &config, int num_trials,
                      const exec::RunnerOptions &runner_options) const
{
    fatalIf(num_trials < 1, "need at least one trial");
    validateConfig(config);

    std::vector<ClusterSimConfig> trials(
        static_cast<std::size_t>(num_trials), config);
    for (int i = 0; i < num_trials; ++i) {
        // splitmix-derived per-trial seeds: config.seed + i would
        // make base seeds s and s + 1 share almost all of their
        // trial streams.
        trials[i].seed =
            splitmixSeed(config.seed, static_cast<std::uint64_t>(i));
    }

    exec::RunnerOptions options = runner_options;
    if (options.study == "study")
        options.study = "cluster_trials";
    exec::ParallelSweepRunner runner(options);

    // Compile once; each trial only fills a duration vector and
    // replays. Resource ids are the builder's: compute d and comm d
    // interleave as 2d / 2d + 1.
    const std::shared_ptr<const sim::GraphTemplate> graph =
        compileIteration(config);
    const std::vector<std::uint32_t> jitterable = jitterIndices(*graph);

    ClusterTrialSummary summary;
    summary.trials =
        runner.map(trials, [&](const ClusterSimConfig &c) {
            // One arena per worker thread, reused across the trials
            // that worker executes: the per-trial work is a duration
            // fill + one allocation-free replay.
            thread_local sim::ReplayScratch scratch;
            thread_local std::vector<Seconds> durations;
            return replayTrial(*graph, jitterable, c, scratch,
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
