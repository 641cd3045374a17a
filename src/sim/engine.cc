#include "engine.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "util/logging.hh"

namespace twocs::sim {

namespace {

/** Total length of the intersection of two merged interval lists. */
Seconds
intersectionLength(const std::vector<std::pair<Seconds, Seconds>> &a,
                   const std::vector<std::pair<Seconds, Seconds>> &b)
{
    Seconds total = 0.0;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        const Seconds lo = std::max(a[i].first, b[j].first);
        const Seconds hi = std::min(a[i].second, b[j].second);
        if (hi > lo)
            total += hi - lo;
        if (a[i].second < b[j].second)
            ++i;
        else
            ++j;
    }
    return total;
}

} // namespace

Schedule::Schedule(std::shared_ptr<const GraphTemplate> graph,
                   std::vector<ScheduledTask> placed)
    : graph_(std::move(graph)), placed_(std::move(placed))
{
    panicIf(graph_ == nullptr, "Schedule without a graph template");
    panicIf(graph_->numTasks() != placed_.size(),
            "Schedule task/placement size mismatch");

    // One pass over the placements builds every aggregate the
    // analysis queries need: makespan, per-resource and per-tag
    // totals, and the sorted+merged busy intervals that
    // exposedTime()/overlappedTime() intersect. The studies call
    // those queries repeatedly per schedule; rebuilding intervals
    // inside each call was the simulator's hottest allocation site.
    busyTotals_.assign(graph_->numResources(), 0.0);
    tagTotals_.assign(graph_->interner().size(), 0.0);
    std::vector<std::vector<Interval>> raw(graph_->numResources());
    for (std::size_t i = 0; i < placed_.size(); ++i) {
        const auto id = static_cast<TaskId>(i);
        const ResourceId res = graph_->taskResource(id);
        const Seconds dur = placed_[i].end - placed_[i].start;
        makespan_ = std::max(makespan_, placed_[i].end);
        busyTotals_[res] += dur;
        const util::StringInterner::Id tag = graph_->taskTagId(id);
        if (tag < tagTotals_.size())
            tagTotals_[tag] += dur;
        if (dur > 0.0)
            raw[res].emplace_back(placed_[i].start, placed_[i].end);
    }
    busyIntervals_.resize(raw.size());
    for (std::size_t r = 0; r < raw.size(); ++r) {
        std::vector<Interval> &ivals = raw[r];
        std::sort(ivals.begin(), ivals.end());
        std::vector<Interval> &merged = busyIntervals_[r];
        merged.reserve(ivals.size());
        for (const Interval &iv : ivals) {
            if (!merged.empty() && iv.first <= merged.back().second) {
                merged.back().second =
                    std::max(merged.back().second, iv.second);
            } else {
                merged.push_back(iv);
            }
        }
    }
}

const GraphTemplate &
Schedule::graph() const
{
    panicIf(graph_ == nullptr, "graph() of an empty Schedule");
    return *graph_;
}

const std::string &
Schedule::resourceName(ResourceId resource) const
{
    return graph().resourceName(resource);
}

Seconds
Schedule::busyTime(ResourceId resource) const
{
    panicIf(resource < 0 ||
                static_cast<std::size_t>(resource) >=
                    busyTotals_.size(),
            "busyTime() of unknown resource ", resource);
    return busyTotals_[resource];
}

Seconds
Schedule::timeByTag(std::string_view tag) const
{
    if (graph_ == nullptr)
        return 0.0;
    const util::StringInterner::Id id =
        graph_->interner().find(tag);
    if (id == util::StringInterner::kNotFound ||
        id >= tagTotals_.size()) {
        return 0.0;
    }
    return tagTotals_[id];
}

const ScheduledTask &
Schedule::placement(TaskId id) const
{
    panicIf(id < 0 || static_cast<std::size_t>(id) >= placed_.size(),
            "placement() of unknown task ", id);
    return placed_[id];
}

ResourceId
Schedule::taskResource(TaskId id) const
{
    return graph().taskResource(id);
}

std::string_view
Schedule::taskLabel(TaskId id) const
{
    return graph().taskLabel(id);
}

std::string_view
Schedule::taskTag(TaskId id) const
{
    return graph().taskTag(id);
}

const util::StringInterner &
Schedule::interner() const
{
    return graph().interner();
}

const std::vector<Schedule::Interval> &
Schedule::busyIntervals(ResourceId resource) const
{
    panicIf(resource < 0 ||
                static_cast<std::size_t>(resource) >=
                    busyIntervals_.size(),
            "interval query of unknown resource ", resource);
    return busyIntervals_[resource];
}

Seconds
Schedule::exposedTime(ResourceId target, ResourceId other) const
{
    const auto &t_busy = busyIntervals(target);
    const auto &o_busy = busyIntervals(other);
    Seconds target_total = 0.0;
    for (const auto &iv : t_busy)
        target_total += iv.second - iv.first;
    return target_total - intersectionLength(t_busy, o_busy);
}

Seconds
Schedule::overlappedTime(ResourceId a, ResourceId b) const
{
    return intersectionLength(busyIntervals(a), busyIntervals(b));
}

ResourceId
EventSimulator::addResource(std::string name)
{
    resourceNames_.push_back(std::move(name));
    return static_cast<ResourceId>(resourceNames_.size()) - 1;
}

TaskId
EventSimulator::addTask(std::string_view label, std::string_view tag,
                        ResourceId resource, Seconds duration,
                        std::span<const TaskId> deps)
{
    fatalIf(resource < 0 ||
                static_cast<std::size_t>(resource) >=
                    resourceNames_.size(),
            "addTask() on unknown resource ", resource);
    fatalIf(duration < 0.0, "addTask() with negative duration for '",
            std::string(label), "'");

    const TaskId id = static_cast<TaskId>(resources_.size());
    for (TaskId dep : deps) {
        fatalIf(dep < 0 || dep >= id, "task '", std::string(label),
                "' depends on unknown task ", dep);
    }

    labels_.push_back(interner_->intern(label));
    tags_.push_back(interner_->intern(tag));
    resources_.push_back(resource);
    durations_.push_back(duration);
    depEdges_.insert(depEdges_.end(), deps.begin(), deps.end());
    depOffsets_.push_back(
        static_cast<std::uint32_t>(depEdges_.size()));
    return id;
}

std::shared_ptr<const GraphTemplate>
EventSimulator::compile() const
{
    auto tmpl = std::make_shared<GraphTemplate>();
    tmpl->resourceNames_ = resourceNames_;
    tmpl->labels_ = labels_;
    tmpl->tags_ = tags_;
    tmpl->resources_ = resources_;
    tmpl->durations_ = durations_;
    tmpl->depOffsets_ = depOffsets_;
    tmpl->depEdges_ = depEdges_;
    tmpl->interner_ = interner_;
    // Per-tag dispatch span labels, built exactly once per compile
    // so replay's per-task tracing never concatenates a string.
    tmpl->dispatchLabels_.reserve(interner_->size());
    for (util::StringInterner::Id id = 0; id < interner_->size();
         ++id) {
        const std::string_view text = interner_->view(id);
        tmpl->dispatchLabels_.push_back(
            "sim.dispatch." +
            (text.empty() ? std::string("task")
                          : std::string(text)));
    }
    return tmpl;
}

Schedule
EventSimulator::run() const
{
    TWOCS_OBS_SPAN(obs::Category::Sim, "sim.run", [this] {
        return "tasks=" + std::to_string(resources_.size()) +
               " resources=" + std::to_string(resourceNames_.size());
    });
    std::shared_ptr<const GraphTemplate> tmpl = compile();
    ReplayScratch scratch;
    replay(*tmpl, {}, scratch);
    return Schedule(std::move(tmpl), scratch.placements());
}

} // namespace twocs::sim
