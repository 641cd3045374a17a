#include "case_study.hh"

#include <ios>
#include <sstream>

#include "sim/graph_cache.hh"
#include "util/logging.hh"

namespace twocs::core {

CaseStudy::CaseStudy(model::Hyperparams baseline_template,
                     hw::Precision precision)
    : baseline_(std::move(baseline_template)), precision_(precision)
{
}

sim::EventSimulator
CaseStudy::lower(const CaseStudyConfig &config,
                 std::vector<DurationRule> *recipe) const
{
    fatalIf(config.fineGrainedOverlapFraction < 0.0 ||
                config.fineGrainedOverlapFraction > 1.0,
            "fineGrainedOverlapFraction must be in [0, 1]");
    fatalIf(config.commInterferenceSlowdown < 1.0,
            "commInterferenceSlowdown must be >= 1");

    const model::Hyperparams hp =
        baseline_.withHidden(config.hidden)
            .withSequenceLength(config.seqLen)
            .withBatchSize(config.batch)
            .withCompatibleHeads(config.tpDegree);
    model::ParallelPlan par;
    par.tpDegree = config.tpDegree;
    par.dpDegree = config.dpDegree;

    // Interference only applies to communication co-located with
    // compute; offloading to a communication co-processor
    // (Section 5, Technique 1) removes it.
    const LoweringOptions options{
        .interNodeDp = config.interNodeDp,
        .interNodeSlowdown = config.interNodeSlowdown,
        .devicesPerNode = config.devicesPerNode,
        .fineGrainedOverlapFraction = config.fineGrainedOverlapFraction,
        .commInterference = config.offloadCommunication
                                ? 1.0
                                : config.commInterferenceSlowdown,
        .dpBucketBytes = config.dpBucketBytes,
    };
    return lowerIteration(model::LayerGraphBuilder(hp, par, precision_),
                          config.system, options, recipe);
}

sim::Schedule
CaseStudy::buildSchedule(const CaseStudyConfig &config) const
{
    // Uncached: one replay of the base durations.
    const std::shared_ptr<const sim::GraphTemplate> graph =
        lower(config).compile();
    sim::ReplayScratch scratch;
    sim::replay(*graph, {}, scratch);
    return sim::Schedule(graph, scratch.placements());
}

std::string
CaseStudy::cacheKey(const CaseStudyConfig &config) const
{
    // The key covers every config field lower() reads into
    // the graph's shape or base durations (durations are baked into
    // a case-study template, so even duration-only knobs like the
    // interference slowdown must key). Doubles render in hexfloat so
    // distinct values can never collide through decimal rounding.
    std::ostringstream os;
    os << "case|"
       << baseline_.withHidden(config.hidden)
              .withSequenceLength(config.seqLen)
              .withBatchSize(config.batch)
              .withCompatibleHeads(config.tpDegree)
              .fingerprint()
       << "|tp=" << config.tpDegree << ",dp=" << config.dpDegree
       << "|sys=" << config.system.fingerprint() << std::hexfloat
       << "|indp=" << (config.interNodeDp ? 1 : 0) << ':'
       << config.interNodeSlowdown << ':' << config.devicesPerNode
       << "|ovl=" << config.fineGrainedOverlapFraction
       << "|intf=" << config.commInterferenceSlowdown
       << "|off=" << (config.offloadCommunication ? 1 : 0)
       << "|bkt=" << config.dpBucketBytes
       << "|prec=" << hw::precisionName(precision_);
    return os.str();
}

std::shared_ptr<const sim::GraphTemplate>
CaseStudy::compileGraph(const CaseStudyConfig &config) const
{
    // Both entry points share one cache row per key, built with
    // its recipe, so a later compileCaseWithRecipe() hit never
    // recompiles.
    return compileCaseWithRecipe(config).graph;
}

CompiledCase
CaseStudy::compileCaseWithRecipe(const CaseStudyConfig &config) const
{
    const sim::GraphCache::Compiled cached =
        sim::GraphCache::instance().getOrCompile(
            cacheKey(config), [&] {
                auto recipe =
                    std::make_shared<std::vector<DurationRule>>();
                sim::GraphCache::Compiled out;
                out.graph = lower(config, recipe.get()).compile();
                out.aux = std::move(recipe);
                return out;
            });

    CompiledCase cc;
    cc.graph = cached.graph;
    cc.recipe =
        sim::GraphCache::auxAs<std::vector<DurationRule>>(cached);
    // Only this function writes a `case|` row, and it always stores
    // the recipe.
    panicIf(cc.recipe == nullptr, "case-study cache row without a "
                                  "duration recipe");
    return cc;
}

void
CaseStudy::fillDurations(const std::vector<DurationRule> &recipe,
                         const hw::KernelCostModel &kernels,
                         std::vector<Seconds> &durations)
{
    durations.resize(recipe.size());
    for (std::size_t i = 0; i < recipe.size(); ++i) {
        const DurationRule &rule = recipe[i];
        durations[i] =
            rule.kernelCosted ? kernels.cost(rule.kernel) : rule.fixed;
    }
}

CaseStudyResult
CaseStudy::resultFromSchedule(const sim::Schedule &sched)
{
    const sim::ResourceId compute = computeStream(0);
    const sim::ResourceId comm_stream = commStream(0);
    CaseStudyResult r;
    r.makespan = sched.makespan();
    r.computeTime = sched.busyTime(compute);
    r.serializedCommTime =
        sched.timeByTag("tp_ar") + sched.timeByTag("ep_a2a");
    r.dpCommTime = sched.timeByTag("dp_ar");
    const Seconds exposed = sched.exposedTime(comm_stream, compute);
    r.dpExposedTime = exposed > r.serializedCommTime
                          ? exposed - r.serializedCommTime
                          : 0.0;
    r.overlappedCommTime = sched.overlappedTime(comm_stream, compute);
    return r;
}

CaseStudyResult
CaseStudy::run(const CaseStudyConfig &config) const
{
    return resultFromSchedule(buildSchedule(config));
}

} // namespace twocs::core
