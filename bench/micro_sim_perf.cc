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

/** Best-of-5 replay rate of the compiled case-study graph. */
double
measureReplayTasksPerSec()
{
    const core::CaseStudy study;
    const std::shared_ptr<const sim::GraphTemplate> compiled =
        study.compileGraph(benchCaseConfig());
    const sim::GraphTemplate &graph = *compiled;
    sim::ReplayScratch scratch;
    scratch.bind(graph);

    // Replays are much cheaper than rebuilds; batch them so each
    // rep measures well above the clock's resolution, at ~1M tasks
    // per rep.
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
                        replays * static_cast<double>(graph.numTasks()) /
                            elapsed.count());
    }
    return best;
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

        // Hit rate of a warm repeated 12-des study over a widened
        // compute-scaling axis: after the first run every cell's
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
        std::printf("12-des study (%zu points): warm graph "
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
