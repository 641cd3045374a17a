/**
 * @file
 * End-to-end Comp-vs.-Comm case study combining serialized (TP) and
 * overlapped (DP) communication on the discrete-event timeline
 * (paper Section 4.3.7, Figure 14).
 *
 * The training iteration is lowered onto one device's compute and
 * communication streams by core::lowerIteration, the lowering the
 * cluster simulation shares: TP all-reduces (costed in closed form)
 * block the next compute operator, DP gradient all-reduces run
 * asynchronously, and the optimizer of each layer waits for that
 * layer's reduced gradients. A third scenario routes DP traffic
 * over slower inter-node links with interference (~8x), exposing
 * previously hidden communication.
 */

#ifndef TWOCS_CORE_CASE_STUDY_HH
#define TWOCS_CORE_CASE_STUDY_HH

#include "core/lowering.hh"
#include "core/system_config.hh"
#include "model/layer_graph.hh"
#include "model/zoo.hh"
#include "sim/engine.hh"

namespace twocs::core {

/** Case-study inputs (defaults reproduce Figure 14's setup). */
struct CaseStudyConfig
{
    std::int64_t hidden = 65536;
    std::int64_t seqLen = 4096;
    std::int64_t batch = 1;
    int tpDegree = 128;
    int dpDegree = 8;

    SystemConfig system;

    /** Route DP gradient traffic over inter-node links. */
    bool interNodeDp = false;
    /** Combined inter-node bandwidth + interference slowdown. */
    double interNodeSlowdown = 8.0;
    /** Devices per node when interNodeDp is set. */
    int devicesPerNode = 4;

    // --- Section 5 communication-acceleration techniques ---

    /**
     * Technique 3 (fine-grained compute/communication overlap):
     * fraction of each serialized TP/EP collective that is
     * decomposed and hidden under dependent compute.
     */
    double fineGrainedOverlapFraction = 0.0;
    /**
     * Slowdown applied to communication that runs concurrently with
     * compute on the same accelerator (resource contention,
     * Section 4.3.7 / Rashidi et al.). 1.0 = no interference.
     */
    double commInterferenceSlowdown = 1.0;
    /**
     * Technique 1 (offload communication to a co-processor): removes
     * the co-location interference from overlapped communication.
     */
    bool offloadCommunication = false;

    /**
     * DDP-style gradient bucketing: merge DP all-reduces into buckets
     * of at least this many bytes (0 = per-sub-layer all-reduces,
     * the paper's granularity). With bucketing the optimizer runs
     * after the last bucket lands, as real frameworks do.
     */
    Bytes dpBucketBytes = 0.0;

    /** Graph pass pipeline (sim::PassPipeline::parse syntax, e.g.
     *  "fuse") applied between build and compile. Empty = the
     *  byte-identity reference path. */
    std::string passes;
};

/** Timeline decomposition of one training iteration. */
struct CaseStudyResult
{
    Seconds makespan = 0.0;
    Seconds computeTime = 0.0;
    /** Serialized TP all-reduce time (always on critical path). */
    Seconds serializedCommTime = 0.0;
    /** Total DP gradient all-reduce time (isolated durations). */
    Seconds dpCommTime = 0.0;
    /** DP comm that compute failed to hide (on critical path). */
    Seconds dpExposedTime = 0.0;
    /** Communication running concurrently with compute (hidden). */
    Seconds overlappedCommTime = 0.0;

    /** Fractions of iteration time (Figure 14's bars). */
    double serializedCommFraction() const
    {
        return serializedCommTime / makespan;
    }
    double exposedCommFraction() const
    {
        return (serializedCommTime + dpExposedTime) / makespan;
    }
    double hiddenCommFraction() const
    {
        return overlappedCommTime / makespan;
    }
    double computeFraction() const { return computeTime / makespan; }
};

/** A cached template plus the per-task duration recipe that lets
 *  structure-sharing siblings refill durations bit-identically to a
 *  from-scratch build (the delta sweep engine's unit of reuse). */
struct CompiledCase
{
    std::shared_ptr<const sim::GraphTemplate> graph;
    std::shared_ptr<const std::vector<DurationRule>> recipe;
};

/** Runs the two-stream timeline for a configuration. */
class CaseStudy
{
  public:
    explicit CaseStudy(model::Hyperparams baseline_template =
                           model::bertLarge(),
                       hw::Precision precision = hw::Precision::FP16);

    CaseStudyResult run(const CaseStudyConfig &config) const;

    /** The schedule behind a result, for timeline inspection. */
    sim::Schedule buildSchedule(const CaseStudyConfig &config) const;

    /** The frozen two-stream iteration graph, for replay-many use
     *  (the micro_sim_perf rebuild-vs-replay configurations).
     *  Resolved through the process-wide sim::GraphCache. */
    std::shared_ptr<const sim::GraphTemplate>
    compileGraph(const CaseStudyConfig &config) const;

    /**
     * compileGraph() plus the duration recipe, for evaluating a
     * family of configurations that share this one's structure but
     * re-cost compute under different hardware scaling (the
     * incremental sweep engine). Requires an empty pass pipeline.
     */
    CompiledCase
    compileCaseWithRecipe(const CaseStudyConfig &config) const;

    /** Aggregate a schedule into the Figure 14 decomposition (the
     *  one aggregation every engine shares, so replayed and rebuilt
     *  paths agree bit for bit). */
    static CaseStudyResult
    resultFromSchedule(const sim::Schedule &sched);

    /** Evaluate a recipe under one kernel model into `durations`
     *  (resized to the recipe): fixed rules verbatim, kernel rules
     *  re-costed — exactly the numbers a from-scratch build at the
     *  same configuration would bake in. */
    static void fillDurations(const std::vector<DurationRule> &recipe,
                              const hw::KernelCostModel &kernels,
                              std::vector<Seconds> &durations);

  private:
    /** Validate `config` and lower its iteration onto one device
     *  (core::lowerIteration). */
    sim::EventSimulator
    lower(const CaseStudyConfig &config,
          std::vector<DurationRule> *recipe = nullptr) const;
    /** lower() compiled and rewritten by config.passes, uncached. */
    std::shared_ptr<const sim::GraphTemplate>
    compileUncached(const CaseStudyConfig &config) const;
    /** The structural cache key compileGraph()/compileCaseWithRecipe()
     *  store under. */
    std::string cacheKey(const CaseStudyConfig &config) const;

    model::Hyperparams baseline_;
    hw::Precision precision_;
};

} // namespace twocs::core

#endif // TWOCS_CORE_CASE_STUDY_HH
