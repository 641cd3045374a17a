/**
 * @file
 * Throughput of the parallel sweep engine on the Table 3 grid: the
 * 196-config serialized study evaluated end to end on the chunked
 * parallelFor at `--jobs 1` and at `--jobs N`.
 * This is the headline number of the bench-regression harness — the
 * paper's huge (H, SL, TP) grids make sweep throughput the scaling
 * axis of the reproduction.
 *
 * Flags: --jobs N (parallel width, default 4), --bench-json FILE
 * (machine-readable results), plus the usual --trace-* options.
 *
 * The exit status gates on byte-identical output at both widths;
 * the parallel speedup needs cores, so it is reported but never
 * asserted (CI checks the JSON schema only, never timings).
 */

#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/amdahl.hh"
#include "core/sweep.hh"
#include "core/system_config.hh"

using namespace twocs;

namespace {

using Clock = std::chrono::steady_clock;

struct Measurement
{
    double configsPerSec = 0.0;
    std::vector<core::AmdahlPoint> points;
};

/** Best-of-`reps` wall-clock throughput of the serialized study
 *  at the given jobs. */
Measurement
measure(const core::AmdahlAnalysis &analysis,
        const std::vector<core::SerializedConfig> &configs, int jobs,
        int reps = 5)
{
    core::SerializedStudyOptions opts;
    opts.runner.jobs = jobs;
    Measurement m;
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        auto points = core::runSerializedStudy(analysis, configs, opts);
        const std::chrono::duration<double> elapsed =
            Clock::now() - start;
        const double rate =
            static_cast<double>(configs.size()) / elapsed.count();
        if (rate > best) {
            best = rate;
            m.points = std::move(points);
        }
    }
    m.configsPerSec = best;
    return m;
}

bool
samePoints(const std::vector<core::AmdahlPoint> &a,
           const std::vector<core::AmdahlPoint> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Exact equality: the determinism contract is byte-identical
        // output, not approximate agreement.
        if (a[i].hidden != b[i].hidden ||
            a[i].seqLen != b[i].seqLen || a[i].batch != b[i].batch ||
            a[i].tpDegree != b[i].tpDegree ||
            a[i].computeTime != b[i].computeTime ||
            a[i].serializedCommTime != b[i].serializedCommTime) {
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    exec::RunnerOptions runner =
        bench::runnerOptions(argc, argv, "sweep_throughput");
    const obs::TraceOptions trace = bench::traceOptions(argc, argv);
    obs::TraceSession session(trace);
    bench::BenchJson json("sweep_throughput",
                          bench::benchJsonPath(argc, argv));

    bench::banner("sweep_throughput",
                  "Table 3 serialized study: parallelFor at "
                  "jobs=1 vs jobs=N");

    const core::SystemConfig sys{};
    const core::AmdahlAnalysis analysis(sys);
    const std::vector<core::SerializedConfig> configs =
        core::serializedConfigs(core::table3());
    const int jobs = runner.jobs > 0 ? runner.jobs : 4;
    const unsigned cores = std::thread::hardware_concurrency();
    std::printf("grid: %zu configs, host cores: %u, jobs: %d\n",
                configs.size(), cores, jobs);

    const Measurement serial = measure(analysis, configs, 1);
    const Measurement parallel = measure(analysis, configs, jobs);

    TextTable table({ "engine", "jobs", "configs/s", "vs jobs=1" });
    const auto row = [&](int j, double rate) {
        table.addRowOf("parallelFor", j, rate,
                       rate / serial.configsPerSec);
    };
    row(1, serial.configsPerSec);
    row(jobs, parallel.configsPerSec);
    table.print(std::cout);

    const bool ok = bench::checkClaim(
        "jobs=1 and jobs=N outputs byte-identical",
        samePoints(parallel.points, serial.points));
    if (cores < 2) {
        std::printf("  note: single-core host; the jobs=N speedup is "
                    "not meaningful here\n");
    }

    json.set("configs", static_cast<double>(configs.size()));
    json.set("jobs", jobs);
    json.set("configs_per_sec_jobs1", serial.configsPerSec);
    json.set("configs_per_sec_jobsN", parallel.configsPerSec);
    if (!json.write())
        return 1;
    // The determinism contract must hold on any host; the speedup
    // is an observation only (CI never gates on timing).
    return ok ? 0 : 1;
}
