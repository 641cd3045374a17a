#include "case_study.hh"

#include <ios>
#include <sstream>

#include "core/lowering.hh"
#include "sim/graph_cache.hh"
#include "util/logging.hh"

namespace twocs::core {

CaseStudy::CaseStudy(model::Hyperparams baseline_template,
                     hw::Precision precision)
    : baseline_(std::move(baseline_template)), precision_(precision)
{
}

namespace {

/** Aggregate a schedule into the Figure 14 decomposition. */
CaseStudyResult
resultFromSchedule(const sim::Schedule &sched)
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

/** One replay of `graph` at its base durations. */
sim::Schedule
replayOnce(std::shared_ptr<const sim::GraphTemplate> graph)
{
    sim::ReplayScratch scratch;
    sim::replay(*graph, {}, scratch);
    return sim::Schedule(std::move(graph), scratch.placements());
}

} // namespace

sim::EventSimulator
CaseStudy::lower(const CaseStudyConfig &config) const
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
                          config.system, options);
}

sim::Schedule
CaseStudy::buildSchedule(const CaseStudyConfig &config) const
{
    return replayOnce(lower(config).compile());
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
    return sim::GraphCache::instance()
        .getOrCompile(cacheKey(config),
                      [&] {
                          sim::GraphCache::Compiled out;
                          out.graph = lower(config).compile();
                          return out;
                      })
        .graph;
}

CaseStudyResult
CaseStudy::run(const CaseStudyConfig &config) const
{
    return resultFromSchedule(replayOnce(compileGraph(config)));
}

} // namespace twocs::core
