/**
 * @file
 * Whole-iteration jitter study on the explicit multi-device
 * simulation. The four per-layer TP all-reduces act as barriers, so
 * per-kernel timing noise on any device stalls the whole group at
 * every layer — the compounding form of the straggler effect, and
 * another cost of communication the closed forms cannot express.
 *
 * The (TP group, jitter) grid maps through the ParallelSweepRunner
 * (`--jobs N`, `--report FILE`); each simulation seeds its own RNG
 * from the config, so output is byte-identical for any jobs count.
 *
 * With `--bench-json FILE` the binary instead times the Monte Carlo
 * trial loop (ClusterSim::runTrials: compile once, replay per trial)
 * against one from-scratch ClusterSim::run() per trial, verifies
 * they agree bit for bit, and emits the regression harness's
 * trials/sec numbers.
 */

#include <chrono>

#include "bench_common.hh"
#include "core/cluster_sim.hh"
#include "util/rng.hh"

using namespace twocs;

namespace {

/** Best trials/sec over back-to-back batches of `trials` (a
 *  callable running `num_trials` trials and returning their summary),
 *  repeated until kMeasureWindow of wall time has passed, so that no
 *  single noisy batch sets the number. */
template <typename Trials>
double
measureTrialsPerSec(int num_trials, Trials &&trials)
{
    using Clock = std::chrono::steady_clock;
    constexpr std::chrono::milliseconds kMeasureWindow(2000);
    double best = 0.0;
    const auto window_start = Clock::now();
    do {
        const auto start = Clock::now();
        const core::ClusterTrialSummary summary = trials();
        const std::chrono::duration<double> elapsed =
            Clock::now() - start;
        (void)summary;
        best = std::max(best, num_trials / elapsed.count());
    } while (Clock::now() - window_start < kMeasureWindow);
    return best;
}

/** One from-scratch run() per trial, seeded and aggregated like
 *  runTrials() and mapped over the same runner — the rebuild
 *  baseline the compiled replay is measured against. */
core::ClusterTrialSummary
rebuildPerTrial(const core::ClusterSim &sim,
                const core::ClusterSimConfig &cfg, int num_trials,
                const exec::RunnerOptions &runner)
{
    std::vector<core::ClusterSimConfig> trials(
        static_cast<std::size_t>(num_trials), cfg);
    for (int i = 0; i < num_trials; ++i)
        trials[static_cast<std::size_t>(i)].seed =
            splitmixSeed(cfg.seed, static_cast<std::uint64_t>(i));
    core::ClusterTrialSummary summary;
    summary.trials = exec::ParallelSweepRunner(runner).map(
        trials,
        [&](const core::ClusterSimConfig &c) { return sim.run(c); });
    for (const core::ClusterSimResult &r : summary.trials) {
        summary.meanIterationTime += r.iterationTime;
        summary.worstIterationTime =
            std::max(summary.worstIterationTime, r.iterationTime);
    }
    summary.meanIterationTime /= static_cast<double>(num_trials);
    return summary;
}

/** Whether two trial summaries agree bit for bit. */
bool
summariesIdentical(const core::ClusterTrialSummary &a,
                   const core::ClusterTrialSummary &b)
{
    bool identical = a.meanIterationTime == b.meanIterationTime &&
                     a.worstIterationTime == b.worstIterationTime &&
                     a.trials.size() == b.trials.size();
    for (std::size_t i = 0; i < a.trials.size() && identical; ++i) {
        identical = a.trials[i].iterationTime ==
                        b.trials[i].iterationTime &&
                    a.trials[i].commTimePerDevice ==
                        b.trials[i].commTimePerDevice &&
                    a.trials[i].computeTimePerDevice ==
                        b.trials[i].computeTimePerDevice &&
                    a.trials[i].stallTimePerDevice ==
                        b.trials[i].stallTimePerDevice;
    }
    return identical;
}

int
benchJsonMain(const std::string &json_path,
              const exec::RunnerOptions &runner)
{
    core::ClusterSim sim;
    core::ClusterSimConfig cfg;
    cfg.tpDegree = 8;
    cfg.computeJitter = 0.05;
    const int num_trials = 32;

    const core::ClusterTrialSummary rebuilt =
        rebuildPerTrial(sim, cfg, num_trials, runner);
    const core::ClusterTrialSummary replayed =
        sim.runTrials(cfg, num_trials, runner);
    const bool identical = summariesIdentical(rebuilt, replayed);
    bench::checkClaim("compiled replay reproduces one rebuilt run() "
                      "per trial bit for bit",
                      identical);

    bench::BenchJson json("cluster_jitter", json_path);
    const double rebuild_rate = measureTrialsPerSec(num_trials, [&] {
        return rebuildPerTrial(sim, cfg, num_trials, runner);
    });
    const double replay_rate = measureTrialsPerSec(num_trials, [&] {
        return sim.runTrials(cfg, num_trials, runner);
    });

    std::printf("Monte Carlo trials: %.0f/sec rebuilt, %.0f/sec "
                "replayed (%.1fx)\n",
                rebuild_rate, replay_rate,
                replay_rate / rebuild_rate);
    json.set("trials_per_sec_rebuild", rebuild_rate);
    json.set("trials_per_sec_replay", replay_rate);
    return json.write() && identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const exec::RunnerOptions runner =
        bench::runnerOptions(argc, argv, "cluster_jitter");
    const std::string json_path =
        bench::benchJsonPath(argc, const_cast<const char **>(argv));
    if (!json_path.empty())
        return benchJsonMain(json_path, runner);

    bench::banner("Cluster jitter",
                  "End-to-end jitter amplification through per-layer "
                  "all-reduce barriers");

    obs::TraceSession trace(bench::traceOptions(argc, argv));

    core::ClusterSim sim;

    // One simulation per (TP group, jitter) cell; jitter 0 is the
    // exact reference row.
    std::vector<core::ClusterSimConfig> configs;
    for (int p : { 4, 8, 16 }) {
        for (double jitter : { 0.0, 0.02, 0.10 }) {
            core::ClusterSimConfig cfg;
            cfg.tpDegree = p;
            cfg.computeJitter = jitter;
            configs.push_back(cfg);
        }
    }
    exec::ParallelSweepRunner map(runner);
    const std::vector<core::ClusterSimResult> results =
        map.map(configs, [&](const core::ClusterSimConfig &cfg) {
            return sim.run(cfg);
        });

    TextTable t({ "TP group", "jitter", "iteration", "comm/device",
                  "stall/device", "slowdown vs exact" });
    double worst_amplification = 0.0;
    for (std::size_t base = 0; base < configs.size(); base += 3) {
        const auto &exact = results[base];
        for (std::size_t j = 1; j < 3; ++j) {
            const auto &cfg = configs[base + j];
            const auto &noisy = results[base + j];
            const double slowdown =
                noisy.iterationTime / exact.iterationTime;
            // Amplification: iteration slowdown per unit of kernel
            // jitter (1.0 would mean mean-level impact only).
            worst_amplification =
                std::max(worst_amplification,
                         (slowdown - 1.0) / cfg.computeJitter);
            t.addRowOf(cfg.tpDegree, formatPercent(cfg.computeJitter),
                       formatSeconds(noisy.iterationTime),
                       formatSeconds(noisy.commTimePerDevice),
                       formatSeconds(noisy.stallTimePerDevice),
                       slowdown);
        }
        t.addRowOf(configs[base].tpDegree, "0% (exact)",
                   formatSeconds(exact.iterationTime),
                   formatSeconds(exact.commTimePerDevice),
                   formatSeconds(exact.stallTimePerDevice), 1.0);
    }
    t.print(std::cout);

    bench::checkClaim("kernel jitter amplifies into iteration "
                      "slowdown through the all-reduce barriers",
                      worst_amplification > 0.3);
    return 0;
}
