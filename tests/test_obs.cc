/**
 * @file
 * Tests for the obs span tracer, its sinks and the determinism
 * contract the instrumented subsystems promise: span counts must not
 * depend on --jobs, traced runs must leave stdout byte-identical,
 * and the Chrome sink must emit strictly valid JSON.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "cli/args.hh"
#include "cli/commands.hh"
#include "comm/ring_sim.hh"
#include "core/cluster_sim.hh"
#include "exec/parallel_for.hh"
#include "hw/catalog.hh"
#include "obs/obs.hh"
#include "obs/session.hh"
#include "obs/sinks.hh"
#include "svc/service.hh"
#include "test_common.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace twocs {
namespace {

/** Leave the process-global tracer off and empty after each test. */
struct TracerGuard
{
    ~TracerGuard()
    {
        obs::Tracer::disable();
        obs::Tracer::reset();
        obs::Tracer::setRingCapacity(
            obs::Tracer::kDefaultRingCapacity);
    }
};

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

// --- tracer core ---

TEST(ObsTracer, DisabledSitesSkipLazyLabelAndArgsWork)
{
    TracerGuard guard;
    obs::Tracer::disable();
    obs::Tracer::reset();
    bool label_built = false, args_built = false;
    {
        obs::Span lazy(obs::Category::Exec, [&] {
            label_built = true;
            return std::string("never");
        });
        TWOCS_OBS_SPAN(obs::Category::Exec, "never", [&] {
            args_built = true;
            return std::string("never");
        });
        TWOCS_OBS_INSTANT(obs::Category::Exec, "never",
                          std::string(64, 'x'));
    }
    EXPECT_FALSE(label_built);
    EXPECT_FALSE(args_built);
    EXPECT_TRUE(obs::Tracer::snapshot().spans.empty());
}

TEST(ObsTracer, RecordsNestedSpansWithStackPaths)
{
    TracerGuard guard;
    obs::Tracer::reset();
    obs::Tracer::enable();
    obs::Tracer::setThreadName("test-main");
    {
        // Direct Span objects, not the macros.
        obs::Span outer(obs::Category::Exec, "outer");
        {
            obs::Span inner(obs::Category::Svc, "inner");
        }
        obs::instant(obs::Category::Exec, "marker", "k=v");
    }
    obs::Tracer::disable();

    const obs::TraceSnapshot snap = obs::Tracer::snapshot();
    ASSERT_EQ(snap.spans.size(), 3u);
    // Sorted by start time: outer opens first.
    EXPECT_EQ(snap.spans[0].label, "outer");
    EXPECT_EQ(snap.spans[0].path, "outer");
    EXPECT_EQ(snap.spans[1].label, "inner");
    EXPECT_EQ(snap.spans[1].path, "outer;inner");
    EXPECT_EQ(snap.spans[1].category, obs::Category::Svc);
    EXPECT_EQ(snap.spans[2].path, "outer;marker");
    EXPECT_EQ(snap.spans[2].args, "k=v");
    EXPECT_EQ(snap.spans[2].durNs, 0);
    EXPECT_GE(snap.spans[0].durNs, snap.spans[1].durNs);
    ASSERT_LT(snap.spans[0].lane, snap.laneNames.size());
    EXPECT_EQ(snap.laneNames[snap.spans[0].lane], "test-main");
}

TEST(ObsTracer, CategoryMaskFiltersRecordingAndCounting)
{
    TracerGuard guard;
    obs::Tracer::reset();
    obs::Tracer::enable(static_cast<unsigned>(obs::Category::Exec));
    {
        obs::Span kept(obs::Category::Exec, "kept");
        obs::Span filtered(obs::Category::Svc, "filtered");
    }
    obs::Tracer::disable();
    auto counts = obs::Tracer::countsByLabel();
    EXPECT_EQ(counts.count("kept"), 1u);
    EXPECT_EQ(counts.count("filtered"), 0u);

    // countsByLabel itself filters by category too.
    obs::Tracer::reset();
    obs::Tracer::enable();
    {
        obs::Span e(obs::Category::Exec, "e");
        obs::Span s(obs::Category::Svc, "s");
    }
    obs::Tracer::disable();
    const auto svc_only = obs::Tracer::countsByLabel(
        static_cast<unsigned>(obs::Category::Svc));
    EXPECT_EQ(svc_only.size(), 1u);
    EXPECT_EQ(svc_only.count("s"), 1u);
}

TEST(ObsTracer, ResetDiscardsSpansStillOpenAcrossIt)
{
    TracerGuard guard;
    obs::Tracer::reset();
    obs::Tracer::enable();
    {
        obs::Span straddler(obs::Category::Exec, "straddles-reset");
        obs::Tracer::reset();
    }
    obs::Tracer::disable();
    EXPECT_TRUE(obs::Tracer::snapshot().spans.empty());
}

TEST(ObsTracer, RingOverflowDropsOldestAndCountsThem)
{
    TracerGuard guard;
    obs::Tracer::setRingCapacity(4);
    obs::Tracer::reset();
    obs::Tracer::enable();
    // A fresh thread gets a fresh lane at the reduced capacity.
    std::thread recorder([] {
        obs::Tracer::setThreadName("overflow-lane");
        for (int i = 0; i < 10; ++i) {
            obs::Span s(obs::Category::Exec,
                        "spin-" + std::to_string(i));
        }
    });
    recorder.join();
    obs::Tracer::disable();

    const obs::TraceSnapshot snap = obs::Tracer::snapshot();
    EXPECT_EQ(snap.spans.size(), 4u);
    EXPECT_EQ(snap.dropped, 6u);
    // The survivors are the newest records, oldest-first.
    EXPECT_EQ(snap.spans.front().label, "spin-6");
    EXPECT_EQ(snap.spans.back().label, "spin-9");
}

TEST(ObsTracer, CategoryListParsing)
{
    EXPECT_EQ(obs::categoryMaskFromList("all"), obs::kAllCategories);
    EXPECT_EQ(obs::categoryMaskFromList("exec,svc"),
              static_cast<unsigned>(obs::Category::Exec) |
                  static_cast<unsigned>(obs::Category::Svc));
    EXPECT_EQ(obs::categoryMaskFromList("sim"),
              static_cast<unsigned>(obs::Category::Sim));
    EXPECT_THROW(obs::categoryMaskFromList("exec,typo"), FatalError);
    EXPECT_THROW(obs::categoryMaskFromList(""), FatalError);
}

// --- sinks ---

obs::TraceSnapshot
tinySnapshot()
{
    obs::TraceSnapshot snap;
    snap.laneNames = { "main" };
    obs::SpanRecord outer;
    outer.label = "work";
    outer.path = "work";
    outer.args = "tasks=3";
    outer.category = obs::Category::Exec;
    outer.lane = 0;
    outer.startNs = 1500;
    outer.durNs = 2500;
    obs::SpanRecord inner;
    inner.label = "step";
    inner.path = "work;step";
    inner.category = obs::Category::Sim;
    inner.lane = 0;
    inner.startNs = 2000;
    inner.durNs = 499;
    snap.spans = { outer, inner };
    return snap;
}

TEST(ObsSinks, ChromeTraceIsStrictlyValidJson)
{
    std::ostringstream os;
    obs::writeChromeTrace(tinySnapshot(), os);
    const std::string out = os.str();
    json::validate(out); // throws FatalError on any malformation
    EXPECT_NE(out.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(out.find("\"name\": \"main\""), std::string::npos);
    EXPECT_NE(out.find("\"name\": \"work\""), std::string::npos);
    EXPECT_NE(out.find("\"cat\": \"exec\""), std::string::npos);
    EXPECT_NE(out.find("\"cat\": \"sim\""), std::string::npos);
    // Nanosecond stamps surface as fractional microseconds.
    EXPECT_NE(out.find("\"ts\": 1.500"), std::string::npos);
    EXPECT_NE(out.find("\"dur\": 2.500"), std::string::npos);
    EXPECT_NE(out.find("{\"detail\": \"tasks=3\"}"),
              std::string::npos);
}

TEST(ObsSinks, FoldedStacksAggregateRoundedMicroseconds)
{
    std::ostringstream os;
    obs::writeFoldedStacks(tinySnapshot(), os);
    // 2500 ns rounds to 3 us; 499 ns rounds to 0.
    EXPECT_EQ(os.str(), "main;work 3\nmain;work;step 0\n");
}

TEST(ObsSinks, SummaryTableReportsCountsAndPercentiles)
{
    std::ostringstream os;
    obs::writeSummary(tinySnapshot(), os);
    const std::string out = os.str();
    EXPECT_NE(out.find("span"), std::string::npos);
    EXPECT_NE(out.find("p95"), std::string::npos);
    EXPECT_NE(out.find("work"), std::string::npos);
    EXPECT_NE(out.find("step"), std::string::npos);
    EXPECT_EQ(out.find("dropped"), std::string::npos);

    obs::TraceSnapshot lossy = tinySnapshot();
    lossy.dropped = 7;
    std::ostringstream os2;
    obs::writeSummary(lossy, os2);
    EXPECT_NE(os2.str().find("7 spans dropped"), std::string::npos);
}

// --- the TraceSession driver glue ---

TEST(ObsSession, InertWithoutAnOutputPath)
{
    TracerGuard guard;
    obs::TraceSession session{ obs::TraceOptions{} };
    EXPECT_FALSE(session.active());
    EXPECT_EQ(obs::Tracer::mask(), 0u);
    session.finish(); // harmless no-op
}

TEST(ObsSession, WritesAValidatedChromeFile)
{
    TracerGuard guard;
    const std::string path =
        testing::TempDir() + "/twocs_obs_session_trace.json";
    std::remove(path.c_str());
    {
        obs::TraceOptions options;
        options.outPath = path;
        obs::TraceSession session(std::move(options));
        EXPECT_TRUE(session.active());
        {
            obs::Span span(obs::Category::Bench, "session-span");
        }
        // Keep the summary table off the test's stderr.
        std::ostringstream sink;
        auto *old = std::cerr.rdbuf(sink.rdbuf());
        session.finish();
        std::cerr.rdbuf(old);
        EXPECT_NE(sink.str().find("session-span"),
                  std::string::npos);
    }
    std::ifstream is(path);
    ASSERT_TRUE(is.good()) << path;
    std::stringstream ss;
    ss << is.rdbuf();
    json::validate(ss.str());
    EXPECT_NE(ss.str().find("session-span"), std::string::npos);
    std::remove(path.c_str());

    obs::TraceOptions bad;
    bad.outPath = path;
    bad.format = "xml";
    EXPECT_THROW(obs::TraceSession{ std::move(bad) }, FatalError);
}

TEST(ObsSession, FromCommandLinePicksUpAllThreeFlags)
{
    const char *argv[] = { "bench", "--reps", "3", "--trace-out",
                           "/tmp/t.json", "--trace-categories",
                           "exec,sim", "--trace-format=folded" };
    const obs::TraceOptions o = obs::TraceOptions::fromCommandLine(
        8, argv);
    EXPECT_EQ(o.outPath, "/tmp/t.json");
    EXPECT_EQ(o.categoryMask,
              static_cast<unsigned>(obs::Category::Exec) |
                  static_cast<unsigned>(obs::Category::Sim));
    EXPECT_EQ(o.format, "folded");
}

// --- determinism through the instrumented subsystems ---

// These tests count the spans emitted by the exec/svc/sim/comm
// instrumentation sites.

std::pair<std::string, std::map<std::string, std::uint64_t>>
tracedSweep(const char *jobs)
{
    obs::Tracer::reset();
    obs::Tracer::enable();
    const char *argv[] = { "twocs", "sweep", "--figure", "10",
                           "--jobs", jobs };
    const cli::Args args = cli::Args::parse(6, argv);
    CoutCapture capture;
    EXPECT_EQ(cli::runCommand(args), 0);
    obs::Tracer::disable();
    return { capture.str(), obs::Tracer::countsByLabel() };
}

TEST(ObsDeterminism, SweepSpanCountsAreJobsInvariant)
{
    TracerGuard guard;
    const auto serial = tracedSweep("1");
    const auto parallel = tracedSweep("4");
    // Identical analysis bytes AND per-label span-count equality:
    // the task body owns the one span per task on every path, so the
    // counts match label for label whether the run was inline or
    // chunked across workers (the "exec.parallel_for" umbrella span
    // is emitted once per map() call at any jobs count).
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.second, parallel.second);
    EXPECT_EQ(serial.second.at("cmd.sweep"), 1u);
    EXPECT_EQ(serial.second.at("exec.parallel_for"), 1u);
    // The scheduler itself no longer emits per-task spans.
    EXPECT_EQ(serial.second.count("exec.task"), 0u);
    EXPECT_EQ(parallel.second.count("exec.task"), 0u);
    EXPECT_GT(serial.second.at("sweep_figure10.task"), 0u);
    EXPECT_EQ(serial.second.at("sweep_figure10.map"), 1u);
}

TEST(ObsDeterminism, OneTraceCoversExecSvcSimAndComm)
{
    TracerGuard guard;
    obs::Tracer::reset();
    obs::Tracer::enable();
    {
        const char *argv[] = { "twocs", "cluster", "--tp", "4",
                               "--layers", "1" };
        const cli::Args args = cli::Args::parse(6, argv);
        CoutCapture capture;
        EXPECT_EQ(cli::runCommand(args), 0);
    }
    svc::QueryService service;
    service.handle(
        "{\"kind\": \"project\", \"hidden\": 4096, "
        "\"parallel\": {\"tp\": 8}}");
    comm::simulateRingCollective(hw::Topology::singleNode(hw::mi210(), 4), 1e6, std::vector<Seconds>(4, 0.0));
    // The exec layer's own span ("exec.parallel_for"): the runner
    // emits no per-task exec spans, so cover the category with an
    // explicit parallel loop.
    exec::parallelFor(4, exec::ParallelForOptions{ .grain = 1 },
                      [](std::size_t) {});
    obs::Tracer::disable();

    const obs::TraceSnapshot snap = obs::Tracer::snapshot();
    unsigned seen = 0;
    for (const obs::SpanRecord &s : snap.spans)
        seen |= static_cast<unsigned>(s.category);
    EXPECT_NE(seen & static_cast<unsigned>(obs::Category::Exec), 0u);
    EXPECT_NE(seen & static_cast<unsigned>(obs::Category::Svc), 0u);
    EXPECT_NE(seen & static_cast<unsigned>(obs::Category::Sim), 0u);
    EXPECT_NE(seen & static_cast<unsigned>(obs::Category::Comm), 0u);
    EXPECT_NE(seen & static_cast<unsigned>(obs::Category::Cli), 0u);

    // The combined trace still serializes to strictly valid JSON.
    std::ostringstream os;
    obs::writeChromeTrace(snap, os);
    json::validate(os.str());
}

TEST(ObsDeterminism, TracedMonteCarloKeepsEveryTrial)
{
    // A replay records one span per call, not one per task, so 200
    // traced trials fit the default rings with room to spare.
    TracerGuard guard;
    core::ClusterSimConfig cfg;
    cfg.computeJitter = 0.05;
    const core::ClusterSim cluster;
    for (const int jobs : { 1, 2 }) {
        obs::Tracer::reset();
        obs::Tracer::enable();
        exec::RunnerOptions runner;
        runner.jobs = jobs;
        cluster.runTrials(cfg, 200, runner);
        obs::Tracer::disable();

        const obs::TraceSnapshot snap = obs::Tracer::snapshot();
        EXPECT_EQ(snap.dropped, 0u) << "jobs " << jobs;
        std::map<std::string, std::uint64_t> counts;
        std::uint64_t dispatches = 0;
        for (const obs::SpanRecord &s : snap.spans) {
            ++counts[s.label];
            dispatches += s.label.rfind("sim.dispatch.", 0) == 0;
        }
        EXPECT_EQ(dispatches, 0u) << "jobs " << jobs;
        EXPECT_EQ(counts["sim.replay"], 200u) << "jobs " << jobs;
        EXPECT_EQ(counts["cluster_trials.task"], 200u)
            << "jobs " << jobs;
    }
}

TEST(ObsDeterminism, ServeStatsSpanSectionIsJobsInvariant)
{
    TracerGuard guard;
    const auto serveOnce = [](int jobs) {
        obs::Tracer::reset();
        obs::Tracer::enable();
        svc::ServiceOptions options;
        options.jobs = jobs;
        svc::QueryService service(options);
        std::istringstream in(
            "{\"kind\": \"project\", \"hidden\": 8192, "
            "\"parallel\": {\"tp\": 8}}\n"
            "{\"kind\": \"project\", \"hidden\": 8192, "
            "\"parallel\": {\"tp\": 16}}\n"
            "{\"kind\": \"stats\"}\n");
        std::ostringstream out;
        test::serveLines(service, in, out);
        obs::Tracer::disable();
        return out.str();
    };
    const std::string serial = serveOnce(1);
    EXPECT_NE(serial.find("\"spans\":{"), std::string::npos)
        << serial;
    EXPECT_NE(serial.find("\"svc.batch.parse\":"), std::string::npos);
    for (const int jobs : { 2, 4 })
        EXPECT_EQ(serveOnce(jobs), serial) << jobs;
}

} // namespace
} // namespace twocs
