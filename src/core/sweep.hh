/**
 * @file
 * The studied configuration space (paper Table 3), the highlighted
 * model lines of Figures 10 and 12, and the parallel execution of
 * the serialized-communication study over that space.
 */

#ifndef TWOCS_CORE_SWEEP_HH
#define TWOCS_CORE_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/amdahl.hh"
#include "core/case_study.hh"
#include "exec/parallel_runner.hh"

namespace twocs::core {

/**
 * Table 3: parameters and setup of models studied.
 *
 * All dimensions are std::int64_t: H reaches 65536 and products such
 * as H * SL * fcDim appear when ops/byte ratios are formed, which
 * overflow 32-bit intermediates at futuristic-PaLM-3x scale.
 */
struct SweepSpace
{
    std::vector<std::int64_t> hiddens;
    std::vector<std::int64_t> batches;
    std::vector<std::int64_t> seqLens;
    std::vector<std::int64_t> tpDegrees;
};

/** The paper's Table 3 values. */
SweepSpace table3();

/** One serialized-analysis configuration (B fixed at 1). */
struct SerializedConfig
{
    std::int64_t hidden = 0;
    std::int64_t seqLen = 0;
    std::int64_t tpDegree = 0;
};

/**
 * The H x SL x TP grid of the serialized-communication study:
 * 7 x 4 x 7 = 196 configurations, the iterations the operator-level
 * model avoids executing (Section 4.3.8).
 */
std::vector<SerializedConfig> serializedConfigs(const SweepSpace &space);

/** A highlighted (H, SL) line of Figure 10 with its required TP. */
struct ModelLine
{
    std::string tag;
    std::int64_t hidden = 0;
    std::int64_t seqLen = 0;
    /** TP degree this model class needs (Section 4.3.2 estimate). */
    std::int64_t requiredTp = 0;
};

/** ~T-NLG, ~PaLM (1x) and the futuristic PaLM-3x lines. */
std::vector<ModelLine> figure10Lines();

/** Execution options of runSerializedStudy(). */
struct SerializedStudyOptions
{
    /**
     * Plan applied to every configuration: the sweep's TP axis
     * replaces basePlan.tpDegree while the other axes (PP, micro-
     * batches, DP, ZeRO, EP, SP) ride along, so a `--parallel`
     * template turns the TP-only grid into a full 3D scenario space.
     */
    model::ParallelPlan basePlan;
    exec::RunnerOptions runner;
};

/**
 * Evaluate every configuration of the serialized study, in parallel
 * across options.runner.jobs worker threads, returning points in
 * input order (deterministic: `--jobs 1` and `--jobs N` agree
 * byte-for-byte).
 */
std::vector<AmdahlPoint>
runSerializedStudy(const AmdahlAnalysis &analysis,
                   const std::vector<SerializedConfig> &configs,
                   const SerializedStudyOptions &options = {});

/** One Figure 12 cell: a model line at one compute-scaling step. */
struct EvolutionConfig
{
    std::string tag;
    std::int64_t hidden = 0;
    std::int64_t seqLen = 0;
    std::int64_t tpDegree = 0;
    /** Device FLOP scaling relative to the base system. */
    double flopScale = 1.0;
};

/**
 * The Figure 12 grid: every figure10Lines() model at each compute
 * scaling step (the paper's 1x/2x/4x hardware-evolution scenarios).
 */
std::vector<EvolutionConfig>
figure12Configs(const std::vector<double> &flop_scales = { 1.0, 2.0,
                                                           4.0 });

/** One evaluated Figure 12 cell. */
struct EvolutionPoint
{
    EvolutionConfig config;
    AmdahlPoint point;
};

/**
 * Evaluate the hardware-evolution study: one operator-model
 * calibration per distinct flop scale (on `base` scaled accordingly),
 * then every cell in parallel. options.basePlan extends each cell's
 * TP degree into a full 3D plan exactly as in runSerializedStudy().
 * Deterministic: results are in input order at any --jobs.
 */
std::vector<EvolutionPoint>
runHardwareEvolutionStudy(const SystemConfig &base,
                          const std::vector<EvolutionConfig> &configs,
                          const SerializedStudyOptions &options = {});

/** One Figure 12 cell evaluated on the event engine. */
struct SimulatedEvolutionPoint
{
    EvolutionConfig config;
    CaseStudyResult result;
};

/**
 * The hardware-evolution study on the event engine (figure `12-des`):
 * one CaseStudy::run per cell, the cell's model line at its required
 * TP under its compute scaling. Results come back in input order at
 * any --jobs — the same determinism contract as every other sweep.
 */
std::vector<SimulatedEvolutionPoint>
runSimulatedEvolutionStudy(const SystemConfig &base,
                           const std::vector<EvolutionConfig> &configs,
                           const exec::RunnerOptions &runner = {});

/** One 3D-zoo model's ground-truth profile under its plan. */
struct ZooStudyPoint
{
    std::string model;
    model::ParallelPlan plan;
    std::int64_t devices = 0;

    Seconds computeTime = 0.0;
    Seconds serializedCommTime = 0.0;
    Seconds dpCommTime = 0.0;

    /** Serialized comm share of the critical path. */
    double commFraction() const
    {
        return serializedCommTime / (computeTime + serializedCommTime);
    }
};

/**
 * Profile every parallelZoo() configuration with the full simulated
 * iteration (ground truth, no projection): the table-2-style 3D zoo
 * study. Deterministic at any --jobs.
 */
std::vector<ZooStudyPoint>
runParallelZooStudy(const SystemConfig &system,
                    const exec::RunnerOptions &runner = {});

} // namespace twocs::core

#endif // TWOCS_CORE_SWEEP_HH
