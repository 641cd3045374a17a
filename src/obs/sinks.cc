#include "sinks.hh"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace twocs::obs {

namespace {

std::string
secondsCell(std::int64_t ns)
{
    return formatSeconds(static_cast<double>(ns) * 1e-9);
}

} // namespace

void
writeChromeTrace(const TraceSnapshot &snap, std::ostream &os)
{
    os << "[\n";
    bool first = true;

    // Thread-name metadata events, one per lane (same dialect as
    // sim::exportChromeTrace so both load in the same viewers).
    for (std::size_t lane = 0; lane < snap.laneNames.size(); ++lane) {
        if (!first)
            os << ",\n";
        first = false;
        os << "  {\"name\": \"thread_name\", \"ph\": \"M\", "
           << "\"pid\": 1, \"tid\": " << lane
           << ", \"args\": {\"name\": "
           << json::quote(snap.laneNames[lane]) << "}}";
    }

    for (const SpanRecord &s : snap.spans) {
        if (!first)
            os << ",\n";
        first = false;
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                      "\"ts\": %.3f, \"dur\": %.3f",
                      s.lane, static_cast<double>(s.startNs) * 1e-3,
                      static_cast<double>(s.durNs) * 1e-3);
        os << "  {\"name\": " << json::quote(s.label)
           << ", \"cat\": " << json::quote(categoryName(s.category))
           << ", " << buf;
        if (!s.args.empty())
            os << ", \"args\": {\"detail\": " << json::quote(s.args)
               << "}";
        os << "}";
    }
    os << "\n]\n";
}

void
writeFoldedStacks(const TraceSnapshot &snap, std::ostream &os)
{
    // Aggregate self-inclusive time per unique lane-qualified stack.
    std::map<std::string, std::int64_t> folded;
    for (const SpanRecord &s : snap.spans) {
        std::string stack =
            s.lane < snap.laneNames.size()
                ? snap.laneNames[s.lane]
                : "lane-" + std::to_string(s.lane);
        stack += ';';
        stack += s.path;
        folded[stack] += s.durNs;
    }
    for (const auto &[stack, ns] : folded)
        os << stack << " " << (ns + 500) / 1000 << "\n";
}

void
writeSummary(const TraceSnapshot &snap, std::ostream &os)
{
    struct LabelStats
    {
        Category category = Category::Exec;
        std::vector<std::int64_t> durations;
        std::int64_t total = 0;
    };

    std::map<std::string, LabelStats> by_label;
    for (const SpanRecord &s : snap.spans) {
        LabelStats &stats = by_label[s.label];
        stats.category = s.category;
        stats.durations.push_back(s.durNs);
        stats.total += s.durNs;
    }

    TextTable t({ "span", "category", "count", "total", "p50",
                  "p95" });
    for (const auto &[label, stats] : by_label) {
        t.addRowOf(label, categoryName(stats.category),
                   static_cast<unsigned long>(
                       stats.durations.size()),
                   secondsCell(stats.total),
                   secondsCell(percentile(stats.durations, 0.50)),
                   secondsCell(percentile(stats.durations, 0.95)));
    }
    t.print(os);
    if (snap.dropped > 0) {
        os << "(" << snap.dropped
           << " spans dropped to ring-buffer overwrite)\n";
    }
}

} // namespace twocs::obs
