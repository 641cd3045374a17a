#include "sweep.hh"

#include <map>

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
                   const SerializedStudyOptions &options)
{
    exec::ParallelSweepRunner runner(options.runner);
    std::vector<AmdahlPoint> points =
        runner.map(configs, [&](const SerializedConfig &c) {
            const model::ParallelPlan plan =
                planAtTp(options.basePlan, c.tpDegree);
            return analysis.evaluate(c.hidden, c.seqLen, 1, plan);
        });
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
                          const SerializedStudyOptions &options)
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
            p.point = analysis.evaluate(c.hidden, c.seqLen, 1, plan);
            return p;
        });
    return points;
}

std::vector<SimulatedEvolutionPoint>
runSimulatedEvolutionStudy(const SystemConfig &base,
                           const std::vector<EvolutionConfig> &configs,
                           const exec::RunnerOptions &runner_options)
{
    const CaseStudy study;
    return exec::ParallelSweepRunner(runner_options)
        .map(configs, [&](const EvolutionConfig &c) {
            return SimulatedEvolutionPoint{
                c, study.run(evolutionCase(base, c)) };
        });
}

std::vector<ZooStudyPoint>
runParallelZooStudy(const SystemConfig &system,
                    const exec::RunnerOptions &runner_options)
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
    return points;
}

} // namespace twocs::core
