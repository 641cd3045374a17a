#include "sweep.hh"

#include <map>
#include <tuple>

#include "model/zoo.hh"
#include "util/logging.hh"

namespace twocs::core {

namespace {

/** Extend a TP-axis value into the options' base plan. */
model::ParallelPlan
planAtTp(const model::ParallelPlan &base, std::int64_t tp)
{
    model::ParallelPlan plan = base;
    plan.tpDegree = static_cast<int>(tp);
    return plan;
}

/** The case-study configuration of one Figure 12 cell: the cell's
 *  model line under the base system with its compute scaling
 *  applied. */
CaseStudyConfig
evolutionCase(const SystemConfig &base, const EvolutionConfig &c)
{
    fatalIf(c.flopScale <= 0.0, "flop scale must be > 0, got ",
            c.flopScale);
    CaseStudyConfig cfg;
    cfg.hidden = c.hidden;
    cfg.seqLen = c.seqLen;
    cfg.tpDegree = static_cast<int>(c.tpDegree);
    cfg.system = base;
    cfg.system.flopScale = base.flopScale * c.flopScale;
    return cfg;
}

} // namespace

SweepSpace
table3()
{
    SweepSpace s;
    s.hiddens = { 1024, 2048, 4096, 8192, 16384, 32768, 65536 };
    s.batches = { 1, 4 };
    s.seqLens = { 1024, 2048, 4096, 8192 };
    s.tpDegrees = { 4, 8, 16, 32, 64, 128, 256 };
    return s;
}

std::vector<SerializedConfig>
serializedConfigs(const SweepSpace &space)
{
    std::vector<SerializedConfig> configs;
    configs.reserve(space.hiddens.size() * space.seqLens.size() *
                    space.tpDegrees.size());
    for (std::int64_t h : space.hiddens) {
        for (std::int64_t sl : space.seqLens) {
            for (std::int64_t tp : space.tpDegrees)
                configs.push_back({ h, sl, tp });
        }
    }
    return configs;
}

std::vector<ModelLine>
figure10Lines()
{
    return {
        { "~T-NLG", 4096, 1024, 16 },
        { "~PaLM (1x)", 16384, 2048, 64 },
        { "PaLM-3x (future)", 65536, 4096, 256 },
    };
}

std::vector<AmdahlPoint>
runSerializedStudy(const AmdahlAnalysis &analysis,
                   const std::vector<SerializedConfig> &configs,
                   const SerializedStudyOptions &options,
                   exec::RunReport *report)
{
    exec::ParallelSweepRunner runner(options.runner);
    std::vector<AmdahlPoint> points =
        runner.map(configs, [&](const SerializedConfig &c) {
            const model::ParallelPlan plan =
                planAtTp(options.basePlan, c.tpDegree);
            return options.groundTruth
                       ? analysis.evaluateDirect(c.hidden, c.seqLen, 1,
                                                 plan)
                       : analysis.evaluate(c.hidden, c.seqLen, 1,
                                           plan);
        });
    if (report != nullptr)
        *report = runner.lastReport();
    return points;
}

std::vector<EvolutionConfig>
figure12Configs(const std::vector<double> &flop_scales)
{
    std::vector<EvolutionConfig> configs;
    for (double scale : flop_scales) {
        for (const ModelLine &line : figure10Lines()) {
            configs.push_back({ line.tag, line.hidden, line.seqLen,
                                line.requiredTp, scale });
        }
    }
    return configs;
}

std::vector<EvolutionPoint>
runHardwareEvolutionStudy(const SystemConfig &base,
                          const std::vector<EvolutionConfig> &configs,
                          const SerializedStudyOptions &options,
                          exec::RunReport *report)
{
    // One calibration per distinct compute scaling, built up front so
    // worker threads only read them.
    std::map<double, AmdahlAnalysis> analyses;
    for (const EvolutionConfig &c : configs) {
        if (analyses.count(c.flopScale) != 0)
            continue;
        fatalIf(c.flopScale <= 0.0,
                "flop scale must be > 0, got ", c.flopScale);
        SystemConfig sys = base;
        sys.flopScale = base.flopScale * c.flopScale;
        analyses.emplace(c.flopScale, AmdahlAnalysis(sys));
    }

    exec::ParallelSweepRunner runner(options.runner);
    std::vector<EvolutionPoint> points =
        runner.map(configs, [&](const EvolutionConfig &c) {
            const AmdahlAnalysis &analysis = analyses.at(c.flopScale);
            const model::ParallelPlan plan =
                planAtTp(options.basePlan, c.tpDegree);
            EvolutionPoint p;
            p.config = c;
            p.point = options.groundTruth
                          ? analysis.evaluateDirect(c.hidden, c.seqLen,
                                                    1, plan)
                          : analysis.evaluate(c.hidden, c.seqLen, 1,
                                              plan);
            return p;
        });
    if (report != nullptr)
        *report = runner.lastReport();
    return points;
}

std::vector<SimulatedEvolutionPoint>
runSimulatedEvolutionStudy(const SystemConfig &base,
                           const std::vector<EvolutionConfig> &configs,
                           const exec::RunnerOptions &runner_options,
                           exec::RunReport *report)
{
    // Reorder the grid so the cells that share a graph structure —
    // same model line, different compute scaling — form one work
    // unit. Each group compiles once and derives every sibling's
    // durations from the recipe; the replays land back in input
    // order, so the reordering is invisible in the output.
    std::vector<std::vector<std::size_t>> groups;
    std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>,
             std::size_t>
        group_of;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const EvolutionConfig &c = configs[i];
        const auto key = std::make_tuple(c.hidden, c.seqLen, c.tpDegree);
        const auto [it, inserted] =
            group_of.try_emplace(key, groups.size());
        if (inserted)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }

    const CaseStudy study;
    exec::ParallelSweepRunner runner(runner_options);
    const std::vector<std::vector<SimulatedEvolutionPoint>> per_group =
        runner.map(groups, [&](const std::vector<std::size_t> &members) {
            const CompiledCase cc = study.compileCaseWithRecipe(
                evolutionCase(base, configs[members.front()]));
            // One pair of arenas per worker thread, rebound per
            // template (the explicit reuse opt-in); the held
            // shared_ptr keeps the template alive for the replays.
            thread_local sim::ReplayScratch scratch;
            thread_local std::vector<Seconds> durations;
            scratch.bind(*cc.graph);
            std::vector<SimulatedEvolutionPoint> local;
            local.reserve(members.size());
            for (const std::size_t idx : members) {
                const CaseStudyConfig cfg =
                    evolutionCase(base, configs[idx]);
                CaseStudy::fillDurations(
                    *cc.recipe, cfg.system.kernelModel(), durations);
                sim::replay(*cc.graph, durations, scratch);
                SimulatedEvolutionPoint p;
                p.config = configs[idx];
                p.result = CaseStudy::resultFromSchedule(
                    sim::Schedule(cc.graph, scratch.placements()));
                local.push_back(std::move(p));
            }
            return local;
        });

    std::vector<SimulatedEvolutionPoint> points(configs.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (std::size_t k = 0; k < groups[g].size(); ++k)
            points[groups[g][k]] = per_group[g][k];
    }

    if (report != nullptr)
        *report = runner.lastReport();
    return points;
}

std::vector<ZooStudyPoint>
runParallelZooStudy(const SystemConfig &system,
                    const exec::RunnerOptions &runner_options,
                    exec::RunReport *report)
{
    const profiling::IterationProfiler profiler = system.profiler();
    const std::vector<model::ParallelZooEntry> &zoo =
        model::parallelZoo();

    exec::ParallelSweepRunner runner(runner_options);
    std::vector<ZooStudyPoint> points =
        runner.map(zoo, [&](const model::ParallelZooEntry &e) {
            const model::Hyperparams &hp = model::zooModel(e.model).hp;
            const model::LayerGraphBuilder graph(hp, e.plan);
            const profiling::RoleTotals prof =
                profiler.iterationTotals(graph);

            ZooStudyPoint p;
            p.model = e.model;
            p.plan = e.plan;
            p.devices = e.plan.totalDevices();
            p.computeTime = prof.computeTime();
            p.serializedCommTime = prof.serializedCommTime();
            p.dpCommTime = prof.dpCommTime();
            return p;
        });
    if (report != nullptr)
        *report = runner.lastReport();
    return points;
}

} // namespace twocs::core
