/**
 * @file
 * Parallel study execution with deterministic aggregation.
 *
 * Every study in this library — the Table 3 serialized grid, the
 * sensitivity tornado, cluster jitter trials, the figure benches —
 * maps a vector of configurations through a pure evaluation functor.
 * ParallelSweepRunner executes that map on the chunked
 * exec::parallelFor and aggregates results **in input order
 * regardless of completion order**, so `--jobs 1` and `--jobs N`
 * produce byte-identical output. Each map() call additionally
 * captures a structured RunReport (wall time, per-config latency
 * percentiles, thread count, task failures) that can be emitted as
 * JSON via `--report`.
 *
 * Determinism contract: the functor must be a pure function of the
 * configuration it receives (no shared mutable state, no global
 * RNG). Every evaluation entry point in twocs satisfies this — the
 * analyses are const and the simulators seed their own RNGs from the
 * config.
 */

#ifndef TWOCS_EXEC_PARALLEL_RUNNER_HH
#define TWOCS_EXEC_PARALLEL_RUNNER_HH

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/parallel_for.hh"
#include "obs/obs.hh"
#include "util/units.hh"

namespace twocs::exec {

/** Execution knobs shared by the CLI and the bench drivers. */
struct RunnerOptions
{
    /** Worker threads; 0 selects hardware_concurrency, 1 runs the
     *  study inline on the calling thread. */
    int jobs = 0;
    /** When non-empty, map() writes its RunReport JSON here. */
    std::string reportPath;
    /** Study label recorded in the report. */
    std::string study = "study";

    int effectiveJobs() const;

    /**
     * Scan a raw argv for `--jobs N` and `--report PATH` (the bench
     * drivers have no full CLI parser); other arguments are ignored.
     */
    static RunnerOptions fromCommandLine(int argc,
                                         const char *const *argv,
                                         std::string study_name);
};

/** One failed configuration evaluation. */
struct TaskFailure
{
    std::size_t index = 0;
    std::string message;
};

/** Observability record of one ParallelSweepRunner::map() call. */
struct RunReport
{
    std::string study;
    int jobs = 1;
    std::size_t numTasks = 0;
    /** Wall-clock time of the whole map() call. */
    Seconds wallTime = 0.0;
    /** Per-config evaluation latency, in input order. */
    std::vector<Seconds> taskSeconds;
    /** Failed tasks, sorted by input index. */
    std::vector<TaskFailure> failures;

    /** Nearest-rank percentiles of taskSeconds (0 when empty). */
    Seconds latencyP50() const;
    Seconds latencyP95() const;

    void writeJson(std::ostream &os) const;
};

/** Write `report` as JSON to options.reportPath when set. */
void maybeWriteReport(const RunnerOptions &options,
                      const RunReport &report);

/**
 * Maps a configuration vector through an evaluation functor on
 * parallelFor; see the file comment for the determinism contract.
 */
class ParallelSweepRunner
{
  public:
    explicit ParallelSweepRunner(RunnerOptions options = {})
        : options_(std::move(options))
    {
    }

    /**
     * Evaluate `fn` on every element of `configs`, returning results
     * in input order. All tasks run even if some fail; afterwards the
     * first failure by input index is rethrown as a FatalError (the
     * same one at any jobs count). The RunReport is captured either
     * way and written to options().reportPath when set.
     */
    template <typename Config, typename Fn>
    auto map(const std::vector<Config> &configs, Fn &&fn)
        -> std::vector<
            std::decay_t<std::invoke_result_t<Fn &, const Config &>>>
    {
        using Result =
            std::decay_t<std::invoke_result_t<Fn &, const Config &>>;
        using Clock = std::chrono::steady_clock;
        const auto elapsed = [](Clock::time_point since) {
            return std::chrono::duration<double>(Clock::now() - since)
                .count();
        };

        const int jobs = std::max(
            1, std::min<int>(options_.effectiveJobs(),
                             static_cast<int>(std::max<std::size_t>(
                                 configs.size(), 1))));
        report_ = RunReport{};
        report_.study = options_.study;
        report_.jobs = jobs;
        report_.numTasks = configs.size();
        report_.taskSeconds.assign(configs.size(), 0.0);

        std::vector<Result> results(configs.size());
        const auto wall_start = Clock::now();

        TWOCS_OBS_SPAN(obs::Category::Exec,
                       options_.study + ".map", [&] {
                           return "tasks=" +
                                  std::to_string(configs.size()) +
                                  " jobs=" + std::to_string(jobs);
                       });
        // Everything string-shaped is built once per map() call;
        // the per-task lambda only touches preformatted state.
        const std::string task_label = options_.study + ".task";
        std::mutex failures_mutex;
        auto runOne = [&](std::size_t i) {
            // Exactly one span per task on every path (inline or
            // on the workers), so per-label span counts are
            // jobs-invariant.
            TWOCS_OBS_SPAN(obs::Category::Exec, task_label);
            const auto task_start = Clock::now();
            try {
                results[i] = fn(configs[i]);
            } catch (const std::exception &e) {
                const std::lock_guard lock(failures_mutex);
                if (report_.failures.empty())
                    report_.failures.reserve(configs.size());
                report_.failures.push_back({ i, e.what() });
            }
            report_.taskSeconds[i] = elapsed(task_start);
        };

        // Chunked across the workers, zero per-task allocations.
        // Results land in per-index slots, so output is identical no
        // matter which worker claims which chunk. At jobs == 1
        // parallelFor degenerates to the inline serial loop (same
        // evaluation order as the historical studies) while still
        // emitting the same spans.
        parallelFor(configs.size(), ParallelForOptions{ .jobs = jobs },
                    runOne);

        report_.wallTime = elapsed(wall_start);
        std::sort(report_.failures.begin(), report_.failures.end(),
                  [](const TaskFailure &a, const TaskFailure &b) {
                      return a.index < b.index;
                  });
        maybeWriteReport(options_, report_);
        if (!report_.failures.empty())
            throwFirstFailure();
        return results;
    }

    /** Report of the most recent map() call. */
    const RunReport &lastReport() const { return report_; }

    const RunnerOptions &options() const { return options_; }

  private:
    [[noreturn]] void throwFirstFailure() const;

    RunnerOptions options_;
    RunReport report_;
};

} // namespace twocs::exec

#endif // TWOCS_EXEC_PARALLEL_RUNNER_HH
