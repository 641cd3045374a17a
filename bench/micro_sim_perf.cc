/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate
 * itself: kernel costing, collective costing, iteration profiling,
 * operator-model projection, and the two-stream timeline. These
 * quantify the "2100x cheaper than real profiling" premise in wall
 * clock terms on the host machine.
 *
 * With `--bench-json FILE` the binary instead emits the regression
 * harness's machine-readable DES tasks/sec number (see bench_common
 * BenchJson) and skips the google-benchmark suite.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "bench_common.hh"
#include "core/amdahl.hh"
#include "core/case_study.hh"
#include "core/sweep.hh"
#include "core/system_config.hh"
#include "opmodel/operator_model.hh"
#include "sim/graph_cache.hh"
#include "sim/passes.hh"

using namespace twocs;

namespace {

const core::SystemConfig &
sys()
{
    static const core::SystemConfig s{};
    return s;
}

void
BM_KernelCost(benchmark::State &state)
{
    const hw::KernelCostModel m = sys().kernelModel();
    hw::KernelDesc k;
    k.kind = hw::KernelKind::Gemm;
    k.label = "bench";
    k.gemm = { state.range(0), state.range(0), state.range(0) };
    for (auto _ : state)
        benchmark::DoNotOptimize(m.cost(k));
}
BENCHMARK(BM_KernelCost)->Arg(1024)->Arg(8192);

void
BM_AllReduceCost(benchmark::State &state)
{
    const comm::CollectiveModel m = sys().collectiveModel();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            m.cost({ comm::CollectiveKind::AllReduce, 256e6, static_cast<int>(state.range(0)) }));
}
BENCHMARK(BM_AllReduceCost)->Arg(4)->Arg(64)->Arg(256);

void
BM_BuildIterationOps(benchmark::State &state)
{
    model::ParallelPlan par;
    par.tpDegree = 8;
    par.dpDegree = 4;
    const model::LayerGraphBuilder g(model::bertLarge(), par);
    for (auto _ : state)
        benchmark::DoNotOptimize(g.iterationOps());
}
BENCHMARK(BM_BuildIterationOps);

void
BM_ProfileIteration(benchmark::State &state)
{
    model::ParallelPlan par;
    par.tpDegree = 8;
    par.dpDegree = 4;
    const model::LayerGraphBuilder g(model::bertLarge(), par);
    const profiling::IterationProfiler p = sys().profiler();
    for (auto _ : state)
        benchmark::DoNotOptimize(p.profileIteration(g));
    state.SetItemsProcessed(state.iterations() *
                            g.iterationOps().size());
}
BENCHMARK(BM_ProfileIteration);

void
BM_IterationTotals(benchmark::State &state)
{
    // The same role sums as BM_ProfileIteration, folded along the
    // periodic shape instead of over materialised records.
    model::ParallelPlan par;
    par.tpDegree = 8;
    par.dpDegree = 4;
    const model::LayerGraphBuilder g(model::bertLarge(), par);
    const profiling::IterationProfiler p = sys().profiler();
    for (auto _ : state)
        benchmark::DoNotOptimize(p.iterationTotals(g));
    state.SetItemsProcessed(state.iterations() *
                            g.iterationShape().opCount());
}
BENCHMARK(BM_IterationTotals);

void
BM_OperatorModelProjection(benchmark::State &state)
{
    core::AmdahlAnalysis analysis(sys());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis.evaluate(16384, 2048, 1, 64));
    }
}
BENCHMARK(BM_OperatorModelProjection);

void
BM_SerializedGrid196(benchmark::State &state)
{
    // The full Table 3 serialized study (196 configs) through the
    // ParallelSweepRunner at --jobs {1,2,4}: the speedup of N vs 1
    // on a multicore host is the parallel-engine scaling figure.
    const core::AmdahlAnalysis analysis(sys());
    const std::vector<core::SerializedConfig> configs =
        core::serializedConfigs(core::table3());
    core::SerializedStudyOptions opts;
    opts.runner.jobs = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::runSerializedStudy(analysis, configs, opts));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(configs.size()));
}
BENCHMARK(BM_SerializedGrid196)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_CaseStudyTimeline(benchmark::State &state)
{
    core::CaseStudy study;
    core::CaseStudyConfig cfg;
    cfg.hidden = 8192;
    cfg.seqLen = 2048;
    cfg.tpDegree = 16;
    cfg.dpDegree = 4;
    for (auto _ : state)
        benchmark::DoNotOptimize(study.run(cfg));
}
BENCHMARK(BM_CaseStudyTimeline);

void
BM_CaseStudyReplay(benchmark::State &state)
{
    // Same graph as BM_CaseStudyTimeline, but compiled once and
    // replayed per rep — the build-once/replay-many speedup.
    core::CaseStudy study;
    core::CaseStudyConfig cfg;
    cfg.hidden = 8192;
    cfg.seqLen = 2048;
    cfg.tpDegree = 16;
    cfg.dpDegree = 4;
    const std::shared_ptr<const sim::GraphTemplate> graph =
        study.compileGraph(cfg);
    sim::ReplayScratch scratch;
    scratch.bind(*graph);
    for (auto _ : state) {
        sim::replay(*graph, {}, scratch);
        benchmark::DoNotOptimize(scratch.makespan());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(graph->numTasks()));
}
BENCHMARK(BM_CaseStudyReplay);

core::CaseStudyConfig
benchCaseConfig()
{
    core::CaseStudyConfig cfg;
    cfg.hidden = 8192;
    cfg.seqLen = 2048;
    cfg.tpDegree = 16;
    cfg.dpDegree = 4;
    return cfg;
}

/**
 * The bench-regression numbers: discrete-event tasks simulated per
 * second on the Figure 14 case-study graph. The rebuild rate pays
 * graph construction + run per rep (the historical cost, the same
 * work BM_CaseStudyTimeline times); the replay rate compiles the
 * GraphTemplate once and pays only the forward pass per rep.
 * Hand-rolled rather than routed through google-benchmark so the
 * JSON schema stays ours.
 */
double
measureRebuildTasksPerSec()
{
    const core::CaseStudy study;
    const core::CaseStudyConfig cfg = benchCaseConfig();

    using Clock = std::chrono::steady_clock;
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        const auto start = Clock::now();
        const sim::Schedule schedule = study.buildSchedule(cfg);
        const std::chrono::duration<double> elapsed =
            Clock::now() - start;
        best = std::max(best,
                        static_cast<double>(schedule.numTasks()) /
                            elapsed.count());
    }
    return best;
}

/**
 * Best-of-5 replay rate of a compiled graph, expressed in
 * *source-graph* tasks per second: a pass-rewritten graph is
 * credited with the `equivalents` tasks of the graph it stands in
 * for, so pass-on and pass-off rates compare the same simulated
 * work and their ratio is the pass's replay speedup.
 */
double
measureReplayEquivalentsPerSec(const sim::GraphTemplate &graph,
                               std::size_t equivalents)
{
    sim::ReplayScratch scratch;
    scratch.bind(graph);

    // Replays are much cheaper than rebuilds; batch them so each
    // rep measures well above the clock's resolution. Rewritten
    // graphs can be tiny, so size the batch to ~1M tasks per rep.
    const int replays = std::max<int>(
        64, static_cast<int>(
                1000000 / std::max<std::size_t>(graph.numTasks(), 1)));

    using Clock = std::chrono::steady_clock;
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        const auto start = Clock::now();
        for (int i = 0; i < replays; ++i)
            sim::replay(graph, {}, scratch);
        const std::chrono::duration<double> elapsed =
            Clock::now() - start;
        best = std::max(best,
                        replays * static_cast<double>(equivalents) /
                            elapsed.count());
    }
    return best;
}

double
measureReplayTasksPerSec()
{
    const core::CaseStudy study;
    const std::shared_ptr<const sim::GraphTemplate> graph =
        study.compileGraph(benchCaseConfig());
    return measureReplayEquivalentsPerSec(*graph,
                                          graph->numTasks());
}

/**
 * A chain-heavy synthetic graph: a few long single-dependency
 * same-resource runs of "compute" tasks — FuseLinearChains'
 * best-case shape, where each chain collapses to one task.
 */
std::shared_ptr<const sim::GraphTemplate>
buildChainGraph()
{
    constexpr int kChains = 4;
    constexpr int kLinks = 4096;
    sim::EventSimulator des;
    for (int c = 0; c < kChains; ++c) {
        const sim::ResourceId res =
            des.addResource("chain" + std::to_string(c));
        sim::TaskId prev = sim::InvalidTask;
        for (int i = 0; i < kLinks; ++i) {
            prev = prev == sim::InvalidTask
                       ? des.addTask("op", "compute", res, 1e-6, {})
                       : des.addTask("op", "compute", res, 1e-6,
                                     { prev });
        }
    }
    return des.compile();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path =
        bench::benchJsonPath(argc, const_cast<const char **>(argv));
    if (!json_path.empty()) {
        bench::BenchJson json("micro_sim_perf", json_path);
        const double rebuild = measureRebuildTasksPerSec();
        const double replay = measureReplayTasksPerSec();
        std::printf("DES case-study graph: %.0f tasks/sec rebuilt, "
                    "%.0f tasks/sec replayed (%.1fx)\n",
                    rebuild, replay, replay / rebuild);
        json.set("tasks_per_sec_rebuild", rebuild);
        json.set("tasks_per_sec_replay", replay);

        // Pass-off vs pass-on replay of a chain-heavy graph, the
        // fuse pass's best case: the fused rate is credited in
        // source-task equivalents.
        const std::shared_ptr<const sim::GraphTemplate> chain =
            buildChainGraph();
        const sim::PassPipeline fuse =
            sim::PassPipeline::parse("fuse");
        using Clock = std::chrono::steady_clock;
        const auto compile_start = Clock::now();
        const std::shared_ptr<const sim::GraphTemplate> fused =
            fuse.apply(chain);
        const std::chrono::duration<double> compile_elapsed =
            Clock::now() - compile_start;
        const double chain_off = measureReplayEquivalentsPerSec(
            *chain, chain->numTasks());
        const double chain_on = measureReplayEquivalentsPerSec(
            *fused, chain->numTasks());
        std::printf("fuse pass: chain graph %zu -> %zu tasks, "
                    "%.0f -> %.0f equiv tasks/sec (%.1fx), "
                    "rewrite %.2f ms\n",
                    chain->numTasks(), fused->numTasks(), chain_off,
                    chain_on, chain_on / chain_off,
                    compile_elapsed.count() * 1e3);
        json.set("pass_chain_tasks_per_sec_replay", chain_off);
        json.set("pass_chain_tasks_per_sec_replay_fused", chain_on);
        json.set("pass_fuse_compile_ms",
                 compile_elapsed.count() * 1e3);

        // The same pass over the real case-study graph (fewer
        // fusable runs than the synthetic chains): its speedup over
        // the unfused case-graph replay, timed back to back, is the
        // pass's honest number.
        const core::CaseStudy study;
        const std::shared_ptr<const sim::GraphTemplate> case_graph =
            study.compileGraph(benchCaseConfig());
        const std::shared_ptr<const sim::GraphTemplate> case_fused =
            fuse.apply(case_graph);
        const double case_off = measureReplayEquivalentsPerSec(
            *case_graph, case_graph->numTasks());
        const double case_on = measureReplayEquivalentsPerSec(
            *case_fused, case_graph->numTasks());
        std::printf("fuse pass: case-study graph %zu -> %zu tasks, "
                    "%.0f -> %.0f equiv tasks/sec (%.2fx)\n",
                    case_graph->numTasks(), case_fused->numTasks(),
                    case_off, case_on, case_on / case_off);
        json.set("tasks_per_sec_replay_fused", case_on);
        json.set("pass_fuse_speedup", case_on / case_off);

        // Hit rate of a warm repeated figure-12 event sweep over a
        // widened compute-scaling axis: after the first run every
        // structural key is resident.
        const std::vector<core::EvolutionConfig> evo =
            core::figure12Configs(
                { 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.5, 3.0 });
        exec::RunnerOptions one_job;
        one_job.jobs = 1;
        sim::GraphCache &cache = sim::GraphCache::instance();
        core::runSimulatedEvolutionStudy(sys(), evo, one_job);
        cache.resetStats();
        core::runSimulatedEvolutionStudy(sys(), evo, one_job);
        const double hit_rate = cache.stats().hitRate();
        std::printf("figure-12 event sweep (%zu points): warm graph "
                    "cache hit rate %.2f\n",
                    evo.size(), hit_rate);
        json.set("graph_cache_hit_rate", hit_rate);
        return json.write() ? 0 : 1;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
