#include "parallel_runner.hh"

#include <cerrno>
#include <cstdlib>
#include <fstream>

#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace twocs::exec {

int
RunnerOptions::effectiveJobs() const
{
    return jobs <= 0 ? defaultThreads() : jobs;
}

RunnerOptions
RunnerOptions::fromCommandLine(int argc, const char *const *argv,
                               std::string study_name)
{
    RunnerOptions options;
    options.study = std::move(study_name);
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key != "--jobs" && key != "--report")
            continue;
        fatalIf(i + 1 >= argc, "option '", key,
                "' is missing a value");
        const std::string value = argv[++i];
        if (key == "--report") {
            options.reportPath = value;
            continue;
        }
        char *end = nullptr;
        errno = 0;
        const long v = std::strtol(value.c_str(), &end, 10);
        fatalIf(end == value.c_str() || *end != '\0' ||
                    errno == ERANGE || v < 0,
                "option --jobs expects a non-negative integer, got '",
                value, "'");
        options.jobs = static_cast<int>(v);
    }
    return options;
}

Seconds
RunReport::latencyP50() const
{
    return percentile(taskSeconds, 0.50);
}

Seconds
RunReport::latencyP95() const
{
    return percentile(taskSeconds, 0.95);
}

void
RunReport::writeJson(std::ostream &os) const
{
    std::vector<obs::JsonWriter> rows;
    for (const TaskFailure &f : failures)
        rows.push_back(obs::JsonWriter()
                           .member("index", f.index)
                           .member("message", f.message));
    obs::JsonWriter()
        .member("study", study)
        .member("jobs", jobs)
        .member("num_tasks", numTasks)
        .member("num_failures", failures.size())
        .member("wall_seconds", wallTime)
        .member("task_seconds_p50", latencyP50())
        .member("task_seconds_p95", latencyP95())
        .member("failures", rows)
        .write(os);
}

void
maybeWriteReport(const RunnerOptions &options, const RunReport &report)
{
    if (options.reportPath.empty())
        return;
    std::ofstream os(options.reportPath);
    fatalIf(!os, "cannot open report file '", options.reportPath,
            "' for writing");
    report.writeJson(os);
    inform("wrote run report ", options.reportPath, " (",
           report.numTasks, " tasks, jobs=", report.jobs, ")");
}

void
ParallelSweepRunner::throwFirstFailure() const
{
    const TaskFailure &first = report_.failures.front();
    fatal("study '", report_.study, "': task ", first.index,
          " failed: ", first.message, " (", report_.failures.size(),
          " of ", report_.numTasks, " tasks failed)");
}

} // namespace twocs::exec
