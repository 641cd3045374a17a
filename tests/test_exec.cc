/**
 * @file
 * Tests for the parallel study-execution engine: the chunk-cursor
 * parallelFor, the ParallelSweepRunner's deterministic aggregation
 * contract (`--jobs 1` and `--jobs N` agree byte-for-byte), the
 * RunReport observability record, and the CLI surface that exposes
 * them.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <numeric>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "cli/commands.hh"
#include "core/cluster_sim.hh"
#include "core/sensitivity.hh"
#include "core/sweep.hh"
#include "exec/parallel_for.hh"
#include "exec/parallel_runner.hh"
#include "test_common.hh"
#include "util/logging.hh"

namespace twocs {
namespace {

// --- chunk-cursor parallelFor ---

TEST(ParallelFor, EveryIndexRunsExactlyOnceUnderAdversarialShapes)
{
    // Ranges and grains chosen to hit every boundary: empty, single,
    // primes (chunks never divide evenly), grain > range, and a
    // grain so large one chunk holds everything. jobs 0 selects
    // defaultThreads(), which never drops below one worker.
    EXPECT_GE(exec::defaultThreads(), 1);
    const std::size_t ranges[] = { 0, 1, 2, 3, 97, 196, 256 };
    const std::size_t grains[] = { 0, 1, 2, 3, 5, 7, 64, 997,
                                   std::size_t{ 1 } << 40 };
    for (const std::size_t n : ranges) {
        for (const std::size_t grain : grains) {
            for (const int jobs : { 0, 1, 2, 3, 8 }) {
                std::vector<std::atomic<int>> hits(n);
                exec::ParallelForOptions o;
                o.jobs = jobs;
                o.grain = grain;
                exec::parallelFor(n, o, [&hits](std::size_t i) {
                    hits[i].fetch_add(1);
                });
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(hits[i].load(), 1)
                        << "n=" << n << " grain=" << grain
                        << " jobs=" << jobs << " i=" << i;
                }
            }
        }
    }
}

TEST(ParallelFor, ChunksTileTheRangeAtGrainBoundaries)
{
    // Output is jobs-invariant because a chunk's range depends only
    // on (n, grain): chunk k covers [k*grain, min((k+1)*grain, n)),
    // whichever worker claims it. One worker runs [0, n) serially.
    using Range = std::pair<std::size_t, std::size_t>;
    struct Recorder
    {
        std::mutex mutex;
        std::vector<Range> ranges;
    };
    const std::size_t ranges[] = { 0, 1, 2, 3, 97, 196, 256 };
    const std::size_t grains[] = { 0, 1, 2, 3, 5, 7, 64, 997,
                                   std::size_t{ 1 } << 40 };
    for (const std::size_t n : ranges) {
        for (const std::size_t grain : grains) {
            for (const int jobs : { 0, 1, 2, 3, 8 }) {
                Recorder rec;
                exec::ParallelForOptions o;
                o.jobs = jobs;
                o.grain = grain;
                exec::detail::parallelForImpl(
                    n, o,
                    [](void *ctx, std::size_t begin, std::size_t end) {
                        auto &r = *static_cast<Recorder *>(ctx);
                        const std::lock_guard lock(r.mutex);
                        r.ranges.emplace_back(begin, end);
                    },
                    &rec);
                std::sort(rec.ranges.begin(), rec.ranges.end());

                const int workers = std::min<int>(
                    jobs <= 0 ? exec::defaultThreads() : jobs,
                    static_cast<int>(n));
                const std::size_t g =
                    grain == 0 ? exec::detail::defaultGrain(n, workers)
                               : grain;
                std::vector<Range> want;
                if (n > 0 && workers <= 1)
                    want.emplace_back(0, n);
                for (std::size_t b = 0; workers > 1 && b < n; b += g)
                    want.emplace_back(b, std::min(b + g, n));
                ASSERT_EQ(rec.ranges, want)
                    << "n=" << n << " grain=" << grain
                    << " jobs=" << jobs;
            }
        }
    }
}

TEST(ParallelFor, SkewedGrainOneStressIsRaceFree)
{
    // Grain 1 with wildly uneven work maximizes cursor traffic: every
    // index is its own claim and the skewed chunks keep some workers
    // busy while the rest claim on. Run under the tsan preset, this
    // is the data race check of the cursor.
    constexpr std::size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<std::int64_t> sum{ 0 };
    exec::ParallelForOptions o;
    o.jobs = 8;
    o.grain = 1;
    exec::parallelFor(kN, o, [&](std::size_t i) {
        // Index-dependent spin so early chunks straggle.
        volatile std::int64_t acc = 0;
        const int spins = i % 97 == 0 ? 2000 : 10;
        for (int s = 0; s < spins; ++s)
            acc = acc + s;
        sum.fetch_add(static_cast<std::int64_t>(i));
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1) << i;
    EXPECT_EQ(sum.load(),
              static_cast<std::int64_t>(kN) * (kN - 1) / 2);
}

TEST(ParallelFor, BodyExceptionPropagatesToCaller)
{
    for (const int jobs : { 1, 4 }) {
        std::atomic<int> ran{ 0 };
        exec::ParallelForOptions o;
        o.jobs = jobs;
        try {
            exec::parallelFor(64, o, [&](std::size_t i) {
                ran.fetch_add(1);
                if (i == 7)
                    throw std::runtime_error("body boom");
            });
            FAIL() << "parallelFor should rethrow at jobs=" << jobs;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "body boom");
        }
        EXPECT_GE(ran.load(), 1) << jobs;
    }
}

TEST(ParallelFor, DefaultGrainTargetsAFewChunksPerWorker)
{
    EXPECT_EQ(exec::detail::defaultGrain(0, 4), 1u);
    EXPECT_EQ(exec::detail::defaultGrain(3, 4), 1u);
    // 196 configs at 4 workers: ~16 chunks of ~12, load-balance
    // slack for the cursor without a claim per index.
    EXPECT_EQ(exec::detail::defaultGrain(196, 4), 12u);
    EXPECT_GE(exec::detail::defaultGrain(1 << 20, 8), 1u << 15);
}

// --- runner options ---

TEST(RunnerOptions, FromCommandLineParsesJobsAndReport)
{
    const char *argv[] = { "bench", "--foo",  "bar",     "--jobs",
                           "6",     "--report", "/tmp/r.json" };
    const auto o = exec::RunnerOptions::fromCommandLine(7, argv, "s");
    EXPECT_EQ(o.jobs, 6);
    EXPECT_EQ(o.reportPath, "/tmp/r.json");
    EXPECT_EQ(o.study, "s");
    EXPECT_GE(o.effectiveJobs(), 1);
}

TEST(RunnerOptions, FromCommandLineRejectsBadJobs)
{
    auto parse = [](std::initializer_list<const char *> a) {
        std::vector<const char *> argv(a);
        return exec::RunnerOptions::fromCommandLine(
            static_cast<int>(argv.size()), argv.data(), "s");
    };
    EXPECT_THROW(parse({ "bench", "--jobs", "abc" }), FatalError);
    EXPECT_THROW(parse({ "bench", "--jobs", "4x" }), FatalError);
    EXPECT_THROW(parse({ "bench", "--jobs", "-2" }), FatalError);
    EXPECT_THROW(parse({ "bench", "--jobs" }), FatalError);
    EXPECT_THROW(parse({ "bench", "--report" }), FatalError);
    EXPECT_EQ(parse({ "bench", "--jobs", "0" }).jobs, 0);
}

// --- parallel sweep runner ---

TEST(ParallelSweepRunner, PreservesInputOrder)
{
    exec::RunnerOptions o;
    o.jobs = 4;
    exec::ParallelSweepRunner runner(o);
    std::vector<int> configs(97);
    std::iota(configs.begin(), configs.end(), 0);
    const std::vector<int> out =
        runner.map(configs, [](const int &i) { return 3 * i + 1; });
    ASSERT_EQ(out.size(), configs.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], 3 * static_cast<int>(i) + 1);
}

TEST(ParallelSweepRunner, EmptyInputIsFine)
{
    exec::ParallelSweepRunner runner;
    const std::vector<double> out = runner.map(
        std::vector<int>{}, [](const int &) { return 1.0; });
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(runner.lastReport().numTasks, 0u);
    EXPECT_DOUBLE_EQ(runner.lastReport().latencyP50(), 0.0);
    EXPECT_DOUBLE_EQ(runner.lastReport().latencyP95(), 0.0);
}

TEST(ParallelSweepRunner, SerializedGridIdenticalAcrossJobs)
{
    // The acceptance grid: all 196 Table 3 configurations must agree
    // bit-for-bit between --jobs 1 and --jobs 4.
    const core::AmdahlAnalysis analysis(test::paperSystem());
    const auto configs = core::serializedConfigs(core::table3());
    ASSERT_EQ(configs.size(), 196u);

    core::SerializedStudyOptions serial, wide;
    serial.runner.jobs = 1;
    wide.runner.jobs = 4;
    const auto a = core::runSerializedStudy(analysis, configs, serial);
    const auto b = core::runSerializedStudy(analysis, configs, wide);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].tpDegree, b[i].tpDegree);
        EXPECT_DOUBLE_EQ(a[i].computeTime, b[i].computeTime);
        EXPECT_DOUBLE_EQ(a[i].serializedCommTime,
                         b[i].serializedCommTime);
        EXPECT_DOUBLE_EQ(a[i].commFraction(), b[i].commFraction());
    }
}

TEST(ParallelSweepRunner, FailureIsDeterministicAcrossJobs)
{
    std::vector<int> configs(16);
    std::iota(configs.begin(), configs.end(), 0);
    auto fn = [](const int &i) {
        fatalIf(i == 11 || i == 5, "config ", i, " is bad");
        return i;
    };
    auto messageAtJobs = [&](int jobs) {
        exec::RunnerOptions o;
        o.jobs = jobs;
        o.study = "failing_study";
        exec::ParallelSweepRunner runner(o);
        try {
            runner.map(configs, fn);
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        return std::string("<no error>");
    };
    const std::string serial = messageAtJobs(1);
    // The first failure *by input index* wins, no matter which worker
    // hits it first, and the count covers all failures.
    EXPECT_NE(serial.find("study 'failing_study': task 5 failed"),
              std::string::npos)
        << serial;
    EXPECT_NE(serial.find("config 5 is bad"), std::string::npos);
    EXPECT_NE(serial.find("(2 of 16 tasks failed)"), std::string::npos);
    for (int jobs : { 2, 4, 8 })
        EXPECT_EQ(messageAtJobs(jobs), serial) << jobs;
}

TEST(ParallelSweepRunner, AllTasksRunDespiteFailures)
{
    std::vector<int> configs(32);
    std::iota(configs.begin(), configs.end(), 0);
    std::atomic<int> ran{ 0 };
    exec::RunnerOptions o;
    o.jobs = 4;
    exec::ParallelSweepRunner runner(o);
    EXPECT_THROW(runner.map(configs,
                            [&](const int &i) {
                                ran.fetch_add(1);
                                fatalIf(i % 2 == 0, "even");
                                return i;
                            }),
                 FatalError);
    EXPECT_EQ(ran.load(), 32);
    EXPECT_EQ(runner.lastReport().failures.size(), 16u);
}

TEST(ParallelSweepRunner, ReportCapturesShape)
{
    exec::RunnerOptions o;
    o.jobs = 3;
    o.study = "shape_study";
    exec::ParallelSweepRunner runner(o);
    std::vector<int> configs(10);
    runner.map(configs, [](const int &i) { return i; });
    const exec::RunReport &r = runner.lastReport();
    EXPECT_EQ(r.study, "shape_study");
    EXPECT_EQ(r.jobs, 3);
    EXPECT_EQ(r.numTasks, 10u);
    EXPECT_EQ(r.taskSeconds.size(), 10u);
    EXPECT_TRUE(r.failures.empty());
    EXPECT_GE(r.wallTime, 0.0);
    EXPECT_GE(r.latencyP50(), 0.0);
    EXPECT_GE(r.latencyP95(), r.latencyP50());
}

TEST(ParallelSweepRunner, JobsClampToTaskCount)
{
    exec::RunnerOptions o;
    o.jobs = 64;
    exec::ParallelSweepRunner runner(o);
    runner.map(std::vector<int>{ 1, 2, 3 },
               [](const int &i) { return i; });
    EXPECT_EQ(runner.lastReport().jobs, 3);
}

TEST(RunReport, JsonHasDocumentedSchema)
{
    exec::RunReport r;
    r.study = "doc \"quoted\" study";
    r.jobs = 2;
    r.numTasks = 3;
    r.wallTime = 0.25;
    // Exactly-representable doubles so the %.17g text is short.
    r.taskSeconds = { 0.25, 0.5, 0.75 };
    r.failures.push_back({ 1, "bad\nrow" });
    std::ostringstream os;
    r.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"study\": \"doc \\\"quoted\\\" study\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"jobs\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"num_tasks\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"num_failures\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"wall_seconds\": 0.25"), std::string::npos);
    EXPECT_NE(json.find("\"task_seconds_p50\": 0.5"),
              std::string::npos);
    EXPECT_NE(json.find("\"task_seconds_p95\": 0.75"),
              std::string::npos);
    EXPECT_NE(json.find("{ \"index\": 1, \"message\": \"bad\\nrow\" }"),
              std::string::npos)
        << json;
}

TEST(RunReport, MapWritesReportFile)
{
    const std::string path =
        testing::TempDir() + "/twocs_exec_report_test.json";
    std::remove(path.c_str());
    exec::RunnerOptions o;
    o.jobs = 2;
    o.study = "file_study";
    o.reportPath = path;
    exec::ParallelSweepRunner runner(o);
    runner.map(std::vector<int>{ 1, 2, 3, 4 },
               [](const int &i) { return i; });
    std::ifstream is(path);
    ASSERT_TRUE(is.good()) << path;
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_NE(ss.str().find("\"study\": \"file_study\""),
              std::string::npos);
    EXPECT_NE(ss.str().find("\"num_tasks\": 4"), std::string::npos);
    std::remove(path.c_str());
}

TEST(RunReport, SingleTaskPercentilesCollapse)
{
    // With one sample, every nearest-rank percentile IS that sample.
    exec::RunnerOptions o;
    o.jobs = 1;
    exec::ParallelSweepRunner runner(o);
    runner.map(std::vector<int>{ 42 }, [](const int &i) { return i; });
    const exec::RunReport &r = runner.lastReport();
    ASSERT_EQ(r.taskSeconds.size(), 1u);
    EXPECT_DOUBLE_EQ(r.latencyP50(), r.taskSeconds[0]);
    EXPECT_DOUBLE_EQ(r.latencyP95(), r.taskSeconds[0]);
}

TEST(RunReport, AllTasksFailedStillReportsEveryTask)
{
    exec::RunnerOptions o;
    o.jobs = 2;
    o.study = "doomed_study";
    exec::ParallelSweepRunner runner(o);
    try {
        runner.map(std::vector<int>{ 1, 2, 3, 4 },
                   [](const int &) -> int { fatal("nope"); });
        FAIL() << "map() should throw when every task fails";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("(4 of 4 tasks failed)"),
                  std::string::npos)
            << e.what();
    }
    const exec::RunReport &r = runner.lastReport();
    EXPECT_EQ(r.failures.size(), 4u);
    // Failed tasks still have measured latencies; the percentiles
    // stay ordered and finite.
    EXPECT_EQ(r.taskSeconds.size(), 4u);
    EXPECT_GE(r.latencyP50(), 0.0);
    EXPECT_GE(r.latencyP95(), r.latencyP50());
}

TEST(RunReport, UnopenableReportPathIsOneLineDiagnostic)
{
    exec::RunnerOptions o;
    o.jobs = 1;
    o.reportPath =
        testing::TempDir() + "/twocs_no_such_dir/report.json";
    exec::ParallelSweepRunner runner(o);
    try {
        runner.map(std::vector<int>{ 1, 2 },
                   [](const int &i) { return i; });
        FAIL() << "map() should fail to write the report";
    } catch (const FatalError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("cannot open report file"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find(o.reportPath), std::string::npos);
        EXPECT_EQ(message.find('\n'), std::string::npos)
            << "diagnostic must be one line: " << message;
    }
}

// --- ported consumers stay deterministic ---

TEST(ExecConsumers, SensitivityTornadoIdenticalAcrossJobs)
{
    core::SensitivityConfig cfg;
    cfg.hidden = 8192;
    cfg.tpDegree = 32;
    exec::RunnerOptions serial, wide;
    serial.jobs = 1;
    wide.jobs = 4;
    const auto a =
        core::sensitivityTornado(cfg, model::bertLarge(), serial);
    const auto b =
        core::sensitivityTornado(cfg, model::bertLarge(), wide);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].knob, b[i].knob);
        EXPECT_DOUBLE_EQ(a[i].fractionLow, b[i].fractionLow);
        EXPECT_DOUBLE_EQ(a[i].fractionBase, b[i].fractionBase);
        EXPECT_DOUBLE_EQ(a[i].fractionHigh, b[i].fractionHigh);
    }
}

TEST(ExecConsumers, ClusterTrialsIdenticalAcrossJobsAndAggregated)
{
    core::ClusterSimConfig cfg;
    cfg.tpDegree = 4;
    cfg.numLayers = 1;
    cfg.computeJitter = 0.05;
    const core::ClusterSim sim;
    exec::RunnerOptions serial, wide;
    serial.jobs = 1;
    wide.jobs = 4;
    const auto a = sim.runTrials(cfg, 3, serial);
    const auto b = sim.runTrials(cfg, 3, wide);
    ASSERT_EQ(a.trials.size(), 3u);
    ASSERT_EQ(b.trials.size(), 3u);
    double sum = 0.0, worst = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_DOUBLE_EQ(a.trials[i].iterationTime,
                         b.trials[i].iterationTime);
        EXPECT_DOUBLE_EQ(a.trials[i].stallTimePerDevice,
                         b.trials[i].stallTimePerDevice);
        sum += a.trials[i].iterationTime;
        worst = std::max(worst, a.trials[i].iterationTime);
    }
    EXPECT_DOUBLE_EQ(a.meanIterationTime, sum / 3.0);
    EXPECT_DOUBLE_EQ(a.worstIterationTime, worst);
    // Distinct seeds: jittered trials should not all coincide.
    EXPECT_NE(a.trials[0].iterationTime, a.trials[1].iterationTime);
    EXPECT_THROW(sim.runTrials(cfg, 0), FatalError);
}

// --- CLI surface ---

/** RAII stdout capture that survives exceptions. */
class CoutCapture
{
  public:
    CoutCapture() : old_(std::cout.rdbuf(capture_.rdbuf())) {}
    ~CoutCapture() { std::cout.rdbuf(old_); }
    std::string str() const { return capture_.str(); }

  private:
    std::ostringstream capture_;
    std::streambuf *old_;
};

std::string
runCli(std::initializer_list<const char *> argv_list)
{
    std::vector<const char *> argv(argv_list);
    const cli::Args args =
        cli::Args::parse(static_cast<int>(argv.size()), argv.data());
    CoutCapture capture;
    EXPECT_EQ(cli::runCommand(args), 0);
    return capture.str();
}

TEST(CliExec, SweepOutputIdenticalAcrossJobs)
{
    const std::string serial = runCli(
        { "twocs", "sweep", "--figure", "10", "--jobs", "1" });
    EXPECT_NE(serial.find("comm_fraction"), std::string::npos);
    for (const char *jobs : { "2", "4" }) {
        EXPECT_EQ(runCli({ "twocs", "sweep", "--figure", "10",
                           "--jobs", jobs }),
                  serial)
            << jobs;
    }
    // Figure 11 goes through the runner too.
    EXPECT_EQ(runCli({ "twocs", "sweep", "--figure", "11", "--jobs",
                       "1" }),
              runCli({ "twocs", "sweep", "--figure", "11", "--jobs",
                       "4" }));
}

TEST(CliExec, SweepWritesReportFile)
{
    const std::string path =
        testing::TempDir() + "/twocs_cli_report_test.json";
    std::remove(path.c_str());
    runCli({ "twocs", "sweep", "--figure", "10", "--jobs", "2",
             "--report", path.c_str() });
    std::ifstream is(path);
    ASSERT_TRUE(is.good()) << path;
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_NE(ss.str().find("\"study\": \"sweep_figure10\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(CliExec, JobsOutOfIntRangeIsRejected)
{
    // Negative and int-overflowing --jobs values are errors, not
    // "every core" or a count wrapped into range.
    const char *commands[][5] = {
        { "twocs", "sweep", "--figure", "10", "--jobs" },
        { "twocs", "cluster", "--trials", "3", "--jobs" },
    };
    for (const auto &cmd : commands) {
        for (const char *jobs : { "-3", "4294967298" }) {
            const char *argv[] = { cmd[0], cmd[1], cmd[2],
                                   cmd[3], cmd[4], jobs };
            const cli::Args args = cli::Args::parse(6, argv);
            try {
                cli::runCommand(args);
                FAIL() << cmd[1] << " accepted --jobs " << jobs;
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find("--jobs"),
                          std::string::npos)
                    << e.what();
                EXPECT_NE(std::string(e.what()).find(jobs),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(CliExec, ClusterTrialsFlagPrintsAggregate)
{
    const std::string out =
        runCli({ "twocs", "cluster", "--tp", "4", "--layers", "1",
                 "--jitter", "0.05", "--trials", "3", "--jobs", "2" });
    EXPECT_NE(out.find("mean iteration"), std::string::npos);
    EXPECT_NE(out.find("worst iteration"), std::string::npos);
    EXPECT_EQ(out,
              runCli({ "twocs", "cluster", "--tp", "4", "--layers",
                       "1", "--jitter", "0.05", "--trials", "3",
                       "--jobs", "1" }));
}

} // namespace
} // namespace twocs
