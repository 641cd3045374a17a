/**
 * @file
 * Shared helpers for the performance benches: option parsing, a
 * banner, PASS/WARN check lines and the `--bench-json` emitter of
 * the regression harness. The paper's figures and their claims live
 * in the figure registry (core/figures.hh), not here.
 */

#ifndef TWOCS_BENCH_BENCH_COMMON_HH
#define TWOCS_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "exec/parallel_runner.hh"
#include "obs/session.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace twocs::bench {

/**
 * Parse `--jobs N` / `--report FILE` from a bench's raw argv. Unlike
 * the CLI binary, benches have no top-level FatalError handler, so a
 * bad value is reported as a one-line diagnostic + exit(1) here
 * rather than std::terminate.
 */
inline exec::RunnerOptions
runnerOptions(int argc, const char *const *argv, std::string study)
{
    try {
        return exec::RunnerOptions::fromCommandLine(argc, argv,
                                                    std::move(study));
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(1);
    }
}

/**
 * Parse `--trace-out FILE` / `--trace-categories LIST` /
 * `--trace-format FMT` from a bench's raw argv, with the same
 * diagnostic + exit(1) policy as runnerOptions(). Pass the result to
 * an obs::TraceSession in main(); with no --trace-out the session is
 * inert and the bench output is unchanged.
 */
inline obs::TraceOptions
traceOptions(int argc, const char *const *argv)
{
    try {
        obs::TraceOptions options =
            obs::TraceOptions::fromCommandLine(argc, argv);
        fatalIf(!options.outPath.empty() &&
                    options.format != "chrome" &&
                    options.format != "folded",
                "unknown --trace-format '", options.format,
                "' (chrome|folded)");
        return options;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(1);
    }
}

/** Print the bench banner. */
inline void
banner(const std::string &id, const std::string &title)
{
    std::cout << "\n=== " << id << ": " << title << " ===\n";
}

/** Print one band check: PASS/FAIL plus the observed value. */
inline bool
checkBand(const std::string &claim, double value, double lo, double hi)
{
    const bool ok = value >= lo && value <= hi;
    std::printf("[%s] %s: observed %.3g (paper band [%.3g, %.3g])\n",
                ok ? "PASS" : "WARN", claim.c_str(), value, lo, hi);
    return ok;
}

/** Print a check of a boolean qualitative claim. */
inline bool
checkClaim(const std::string &claim, bool ok)
{
    std::printf("[%s] %s\n", ok ? "PASS" : "WARN", claim.c_str());
    return ok;
}

/**
 * Machine-readable bench results, for the CI regression harness.
 *
 * A bench parses `--bench-json FILE` with benchJsonPath(), records
 * its headline numbers with set(), and calls write() on exit. With
 * no --bench-json flag the emitter is inert, so interactive runs are
 * unchanged. The schema is deliberately tiny and append-only:
 *
 *   {"schema": "twocs-bench-1",
 *    "bench": "<name>",
 *    "metrics": {"<metric>": <number>, ...}}
 *
 * CI validates presence of the schema fields only — never timing
 * values, which depend on the host (see ci/run_tier1.sh).
 */
class BenchJson
{
  public:
    BenchJson(std::string bench, std::string path)
        : bench_(std::move(bench)), path_(std::move(path))
    {
    }

    void set(const std::string &metric, double value)
    {
        metrics_.emplace_back(metric, value);
    }

    /** Write the report; returns false (with a diagnostic) if the
     *  file can't be opened. No-op when no path was given. */
    bool write() const
    {
        if (path_.empty())
            return true;
        std::ofstream out(path_);
        if (!out) {
            std::fprintf(stderr,
                         "error: cannot write bench json '%s'\n",
                         path_.c_str());
            return false;
        }
        out << "{\n  \"schema\": \"twocs-bench-1\",\n  \"bench\": "
            << json::quote(bench_) << ",\n  \"metrics\": {";
        bool first = true;
        for (const auto &[metric, value] : metrics_) {
            out << (first ? "\n" : ",\n") << "    "
                << json::quote(metric) << ": "
                << json::number(value);
            first = false;
        }
        out << "\n  }\n}\n";
        std::printf("bench json written to %s\n", path_.c_str());
        return true;
    }

  private:
    std::string bench_;
    std::string path_;
    /** Insertion-ordered so the artifact diff is stable. */
    std::vector<std::pair<std::string, double>> metrics_;
};

/** Extract `--bench-json FILE` from a bench's argv (empty string if
 *  absent). Both option parsers ignore unknown flags, so this
 *  composes with runnerOptions()/traceOptions() on the same argv. */
inline std::string
benchJsonPath(int argc, const char *const *argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--bench-json")
            return argv[i + 1];
    }
    return std::string();
}

} // namespace twocs::bench

#endif // TWOCS_BENCH_BENCH_COMMON_HH
