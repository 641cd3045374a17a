#include "graph.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "util/logging.hh"

namespace twocs::sim {

const std::string &
GraphTemplate::resourceName(ResourceId resource) const
{
    panicIf(resource < 0 ||
                static_cast<std::size_t>(resource) >=
                    resourceNames_.size(),
            "resourceName() of unknown resource ", resource);
    return resourceNames_[resource];
}

ResourceId
GraphTemplate::taskResource(TaskId id) const
{
    panicIf(id < 0 ||
                static_cast<std::size_t>(id) >= resources_.size(),
            "taskResource() of unknown task ", id);
    return resources_[id];
}

Seconds
GraphTemplate::baseDuration(TaskId id) const
{
    panicIf(id < 0 ||
                static_cast<std::size_t>(id) >= durations_.size(),
            "baseDuration() of unknown task ", id);
    return durations_[id];
}

util::StringInterner::Id
GraphTemplate::taskLabelId(TaskId id) const
{
    panicIf(id < 0 || static_cast<std::size_t>(id) >= labels_.size(),
            "taskLabelId() of unknown task ", id);
    return labels_[id];
}

util::StringInterner::Id
GraphTemplate::taskTagId(TaskId id) const
{
    panicIf(id < 0 || static_cast<std::size_t>(id) >= tags_.size(),
            "taskTagId() of unknown task ", id);
    return tags_[id];
}

std::string_view
GraphTemplate::taskLabel(TaskId id) const
{
    return interner_->view(taskLabelId(id));
}

std::string_view
GraphTemplate::taskTag(TaskId id) const
{
    return interner_->view(taskTagId(id));
}

std::span<const TaskId>
GraphTemplate::deps(TaskId id) const
{
    panicIf(id < 0 ||
                static_cast<std::size_t>(id) + 1 >= depOffsets_.size(),
            "deps() of unknown task ", id);
    const std::size_t i = static_cast<std::size_t>(id);
    return { depEdges_.data() + depOffsets_[i],
             depEdges_.data() + depOffsets_[i + 1] };
}

void
ReplayScratch::bind(const GraphTemplate &graph)
{
    bound_ = &graph;
    placed_.resize(graph.numTasks());
    resourceFree_.resize(graph.numResources());
    busyTotals_.resize(graph.numResources());
}

Seconds
ReplayScratch::busyTotal(ResourceId resource) const
{
    panicIf(resource < 0 ||
                static_cast<std::size_t>(resource) >=
                    busyTotals_.size(),
            "busyTotal() of unknown resource ", resource);
    return busyTotals_[resource];
}

void
replay(const GraphTemplate &graph,
       std::span<const Seconds> durations, ReplayScratch &scratch)
{
    const std::size_t n = graph.numTasks();
    panicIf(!durations.empty() && durations.size() != n,
            "replay() durations size ", durations.size(),
            " does not match the template's ", n, " tasks");
    panicIf(scratch.bound_ != nullptr && scratch.bound_ != &graph,
            "replay() scratch is still bound to another template "
            "(shape ",
            scratch.placed_.size(),
            " tasks); call bind() to reuse the arena");
    const Seconds *dur = durations.empty()
                             ? graph.durations_.data()
                             : durations.data();

    // The only tracing check of the call: the per-tag counts stand
    // in for per-task spans, so the loop below stays call-free.
    TWOCS_OBS_SPAN(obs::Category::Sim, "sim.replay", [&] {
        std::string args = "tasks=" + std::to_string(n) +
                           " resources=" +
                           std::to_string(graph.numResources());
        for (const auto &[tag, count] : graph.tagCounts_) {
            const std::string_view text = graph.interner_->view(tag);
            args += ' ';
            args += text.empty() ? std::string_view("task") : text;
            args += '=';
            args += std::to_string(count);
        }
        return args;
    });

    scratch.bind(graph);
    std::fill(scratch.resourceFree_.begin(),
              scratch.resourceFree_.end(), 0.0);
    std::fill(scratch.busyTotals_.begin(),
              scratch.busyTotals_.end(), 0.0);

    ScheduledTask *placed = scratch.placed_.data();
    Seconds *resource_free = scratch.resourceFree_.data();
    Seconds *busy = scratch.busyTotals_.data();
    const ResourceId *res = graph.resources_.data();
    const std::uint32_t *offsets = graph.depOffsets_.data();
    const TaskId *edges = graph.depEdges_.data();
    Seconds makespan = 0.0;

    // Tasks were compiled in program order and dependencies point
    // backwards (validated at build), so one forward pass is a valid
    // simulation — the same recurrence EventSimulator::run() always
    // used, now over flat arrays.
    for (std::size_t i = 0; i < n; ++i) {
        const ResourceId r = res[i];
        Seconds ready = resource_free[r];
        for (std::uint32_t e = offsets[i]; e < offsets[i + 1]; ++e)
            ready = std::max(ready, placed[edges[e]].end);
        const Seconds end = ready + dur[i];
        placed[i] = { static_cast<TaskId>(i), ready, end };
        resource_free[r] = end;
        // Bit-identical to Schedule's constructor pass, which sums
        // end - start per resource in task order.
        busy[r] += end - ready;
        makespan = std::max(makespan, end);
    }
    scratch.makespan_ = makespan;
}

void
BatchScratch::bind(const GraphTemplate &graph, std::size_t lanes)
{
    panicIf(lanes == 0, "BatchScratch needs at least one lane");
    bound_ = &graph;
    lanes_ = lanes;
    ends_.resize(graph.numTasks() * lanes);
    ready_.resize(lanes);
    resourceFree_.resize(graph.numResources() * lanes);
    busyTotals_.resize(graph.numResources() * lanes);
    makespans_.resize(lanes);
}

Seconds
BatchScratch::makespan(std::size_t lane) const
{
    panicIf(lane >= makespans_.size(),
            "makespan() of unknown lane ", lane);
    return makespans_[lane];
}

Seconds
BatchScratch::busyTotal(ResourceId resource, std::size_t lane) const
{
    panicIf(resource < 0 || lane >= lanes_ ||
                static_cast<std::size_t>(resource) * lanes_ + lane >=
                    busyTotals_.size(),
            "busyTotal() of unknown resource ", resource, " lane ",
            lane);
    return busyTotals_[static_cast<std::size_t>(resource) * lanes_ +
                       lane];
}

Seconds
BatchScratch::taskEnd(TaskId id, std::size_t lane) const
{
    panicIf(id < 0 || lane >= lanes_ ||
                static_cast<std::size_t>(id) * lanes_ + lane >=
                    ends_.size(),
            "taskEnd() of unknown task ", id, " lane ", lane);
    return ends_[static_cast<std::size_t>(id) * lanes_ + lane];
}

void
replayBatch(const GraphTemplate &graph,
            std::span<const Seconds> durations_soa, std::size_t lanes,
            BatchScratch &scratch)
{
    const std::size_t n = graph.numTasks();
    panicIf(lanes == 0, "replayBatch() needs at least one lane");
    panicIf(!durations_soa.empty() &&
                durations_soa.size() != n * lanes,
            "replayBatch() SoA size ", durations_soa.size(),
            " does not match ", n, " tasks x ", lanes, " lanes");
    panicIf(scratch.bound_ != nullptr && scratch.bound_ != &graph,
            "replayBatch() scratch is still bound to another "
            "template; call bind() to reuse the arena");

    TWOCS_OBS_SPAN(obs::Category::Sim, "sim.replay_batch", [&] {
        return "tasks=" + std::to_string(n) +
               " lanes=" + std::to_string(lanes);
    });

    scratch.bind(graph, lanes);
    std::fill(scratch.resourceFree_.begin(),
              scratch.resourceFree_.end(), 0.0);
    std::fill(scratch.busyTotals_.begin(),
              scratch.busyTotals_.end(), 0.0);
    std::fill(scratch.makespans_.begin(), scratch.makespans_.end(),
              0.0);

    // Raw restrict-qualified pointers: the rows live in distinct
    // arenas (and a task's dependency rows precede its own end row),
    // so telling the compiler so lets the lane loops vectorize
    // without runtime overlap checks.
    const std::size_t L = lanes;
    Seconds *__restrict ends = scratch.ends_.data();
    Seconds *__restrict ready = scratch.ready_.data();
    Seconds *__restrict resource_free = scratch.resourceFree_.data();
    Seconds *__restrict busy = scratch.busyTotals_.data();
    Seconds *__restrict makespans = scratch.makespans_.data();
    const ResourceId *res = graph.resources_.data();
    const std::uint32_t *offsets = graph.depOffsets_.data();
    const TaskId *edges = graph.depEdges_.data();
    const bool broadcast = durations_soa.empty();
    const Seconds *base = graph.durations_.data();
    const Seconds *__restrict soa = durations_soa.data();

    // The sequential recurrence, lane-interleaved: every lane sees
    // exactly the op sequence replay() would run for its duration
    // vector (ready = stream-free, then dep maxes in edge order,
    // then one add), so each lane is bit-identical to a sequential
    // replay — the inner loops just run over `L` adjacent doubles.
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = static_cast<std::size_t>(res[i]);
        Seconds *__restrict rf_row = resource_free + r * L;
        for (std::size_t l = 0; l < L; ++l)
            ready[l] = rf_row[l];
        for (std::uint32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
            const Seconds *__restrict dep_row =
                ends + static_cast<std::size_t>(edges[e]) * L;
            for (std::size_t l = 0; l < L; ++l)
                ready[l] = std::max(ready[l], dep_row[l]);
        }
        Seconds *__restrict end_row = ends + i * L;
        Seconds *__restrict busy_row = busy + r * L;
        if (broadcast) {
            const Seconds d = base[i];
            for (std::size_t l = 0; l < L; ++l) {
                const Seconds end = ready[l] + d;
                end_row[l] = end;
                rf_row[l] = end;
                busy_row[l] += end - ready[l];
                makespans[l] = std::max(makespans[l], end);
            }
        } else {
            const Seconds *__restrict dur_row = soa + i * L;
            for (std::size_t l = 0; l < L; ++l) {
                const Seconds end = ready[l] + dur_row[l];
                end_row[l] = end;
                rf_row[l] = end;
                busy_row[l] += end - ready[l];
                makespans[l] = std::max(makespans[l], end);
            }
        }
    }
}

} // namespace twocs::sim
