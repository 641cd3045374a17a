#include "parallel_runner.hh"

#include <cerrno>
#include <cstdlib>
#include <fstream>

#include "util/json.hh"
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
    os << "{\n"
       << "  \"study\": " << json::quote(study) << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"num_tasks\": " << numTasks << ",\n"
       << "  \"num_failures\": " << failures.size() << ",\n"
       << "  \"wall_seconds\": " << json::number(wallTime) << ",\n"
       << "  \"task_seconds_p50\": " << json::number(latencyP50())
       << ",\n"
       << "  \"task_seconds_p95\": " << json::number(latencyP95())
       << ",\n"
       << "  \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        os << (i == 0 ? "\n" : ",\n")
           << "    { \"index\": " << failures[i].index
           << ", \"message\": " << json::quote(failures[i].message)
           << " }";
    }
    os << (failures.empty() ? "]\n" : "\n  ]\n") << "}\n";
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
