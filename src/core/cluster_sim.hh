/**
 * @file
 * Explicit multi-device training simulation.
 *
 * Every other analysis in this library exploits SPMD symmetry and
 * simulates one representative device. This module instead
 * instantiates the whole tensor-parallel group on the event engine
 * (core::lowerIteration at p devices: ring all-reduces decomposed
 * into their 2(P-1) neighbour-dependent steps) and optionally
 * perturbs each device's kernel times with seeded noise. Because the
 * four per-layer all-reduces act as synchronization barriers,
 * per-device jitter compounds into iteration-level slowdown that no
 * single-device model can see.
 *
 * Monte Carlo trials share one graph shape: runTrials() compiles the
 * per-iteration layer graph once (sim::GraphTemplate) and maps
 * jittered duration vectors over the trials, one replay-scratch
 * arena per worker thread — a trial allocates nothing and
 * re-validates nothing. run() lowers and compiles uncached, and the
 * tests hold runTrials() bit-identical to one run() per trial.
 */

#ifndef TWOCS_CORE_CLUSTER_SIM_HH
#define TWOCS_CORE_CLUSTER_SIM_HH

#include "core/system_config.hh"
#include "exec/parallel_runner.hh"
#include "model/zoo.hh"
#include "sim/engine.hh"

namespace twocs::core {

/** Cluster-simulation inputs. */
struct ClusterSimConfig
{
    std::int64_t hidden = 8192;
    std::int64_t seqLen = 2048;
    std::int64_t batch = 1;
    /** Devices simulated explicitly (the TP group). */
    int tpDegree = 8;
    /** Layers simulated (fewer than the model's keeps the task
     *  graph small; results scale linearly in layers). */
    int numLayers = 4;

    /**
     * Full 3D plan whose non-TP axes (PP, micro-batches, DP, ZeRO,
     * EP) extend the simulated iteration: their collectives appear
     * as closed-form-cost tasks on each device's communication
     * stream, while the TP group itself stays an explicit
     * neighbour-dependent ring. DP gradient collectives overlap
     * later backward compute (at the end of the iteration when
     * overlapDpComm is false); the rest serialize with compute. The
     * plan's tpDegree is overridden by `tpDegree` above.
     */
    model::ParallelPlan plan;

    SystemConfig system;

    /** Per-kernel, per-device relative timing jitter (0 = exact). */
    double computeJitter = 0.0;
    std::uint64_t seed = 1;

    /** Graph pass pipeline (sim::PassPipeline::parse syntax, e.g.
     *  "fuse,dce") applied to the compiled iteration graph before
     *  any replay. Empty = the byte-identity reference path. */
    std::string passes;
};

/** Cluster-simulation outputs. */
struct ClusterSimResult
{
    /** Iteration makespan across the whole group. */
    Seconds iterationTime = 0.0;
    /** Mean per-device comm busy time; overlapped DP collectives
     *  count in full, so it can overlap compute time. */
    Seconds commTimePerDevice = 0.0;
    /** Mean per-device compute busy time. */
    Seconds computeTimePerDevice = 0.0;
    /** Iteration minus compute and comm busy time, clamped at 0:
     *  jitter-induced stalls, less any overlapped comm. */
    Seconds stallTimePerDevice = 0.0;

    double commFraction() const
    {
        return commTimePerDevice / iterationTime;
    }
    double stallFraction() const
    {
        return stallTimePerDevice / iterationTime;
    }
};

/** Aggregate over independently-seeded repeated trials. */
struct ClusterTrialSummary
{
    /** Per-trial results, in trial-index order; trial i runs with
     *  seed util-rng splitmixSeed(config.seed, i). */
    std::vector<ClusterSimResult> trials;
    Seconds meanIterationTime = 0.0;
    Seconds worstIterationTime = 0.0;
};

/** Runs the explicit group simulation. */
class ClusterSim
{
  public:
    explicit ClusterSim(model::Hyperparams baseline =
                            model::bertLarge(),
                        hw::Precision precision = hw::Precision::FP16);

    ClusterSimResult run(const ClusterSimConfig &config) const;

    /**
     * Repeat the simulation `num_trials` times, trial i seeded with
     * splitmixSeed(config.seed, i) — a per-trial mix rather than
     * config.seed + i, so adjacent base seeds do not share almost
     * all of their trial streams — in parallel across runner.jobs
     * worker threads. Results are aggregated in trial order, so any
     * jobs count produces identical output, bit-identical to calling
     * run() once per trial with the same seed.
     */
    ClusterTrialSummary runTrials(const ClusterSimConfig &config,
                                  int num_trials,
                                  const exec::RunnerOptions &runner =
                                      {}) const;

    /**
     * Freeze the iteration graph for `config` (base durations, no
     * jitter applied), with config.passes already run over it.
     * Exposed for the replay benches and tests; runTrials() uses it
     * internally.
     */
    std::shared_ptr<const sim::GraphTemplate>
    compileIteration(const ClusterSimConfig &config) const;

  private:
    model::Hyperparams baseline_;
    hw::Precision precision_;
};

} // namespace twocs::core

#endif // TWOCS_CORE_CLUSTER_SIM_HH
