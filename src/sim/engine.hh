/**
 * @file
 * A small deterministic discrete-event engine with GPU-stream
 * semantics.
 *
 * Resources model hardware queues (a device's compute stream and
 * communication stream). Tasks are issued to a resource in program
 * order and execute FIFO, but a task additionally waits for all of
 * its dependencies — exactly the semantics of GPU streams plus
 * cross-stream events. The engine is the ground-truth substrate the
 * operator-level projection models are validated against.
 *
 * Allocation discipline: task labels and classification tags are
 * interned (util/interner.hh) — a task carries two 32-bit ids, not
 * two strings — and the graph is stored flat with CSR dependencies
 * (sim/graph.hh): one offsets[] + one edges[] array instead of a
 * per-task heap vector. EventSimulator is the builder; compile()
 * freezes the graph into an immutable GraphTemplate that replay()
 * can run against arbitrary duration vectors with zero per-trial
 * allocations, and run() itself is just compile-once + replay-once.
 * Schedule precomputes per-resource busy intervals and per-tag
 * totals once at construction, so the exposed/overlapped-time
 * queries the studies hammer are O(intervals) lookups instead of
 * per-call rebuilds.
 */

#ifndef TWOCS_SIM_ENGINE_HH
#define TWOCS_SIM_ENGINE_HH

#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/graph.hh"
#include "util/interner.hh"
#include "util/units.hh"

namespace twocs::sim {

/** The result of running an EventSimulator: a frozen graph template
 *  plus the placement of every task. Cheaply default-constructible
 *  (an empty schedule with no graph behind it), so result structs
 *  can hold one by value without a throwaway allocation. */
class Schedule
{
  public:
    Schedule() = default;

    Schedule(std::shared_ptr<const GraphTemplate> graph,
             std::vector<ScheduledTask> placed);

    /** Name of a resource (stream), as registered. */
    const std::string &resourceName(ResourceId resource) const;

    std::size_t numResources() const
    {
        return graph_ == nullptr ? 0 : graph_->numResources();
    }
    std::size_t numTasks() const { return placed_.size(); }

    /** Completion time of the last task. */
    Seconds makespan() const { return makespan_; }

    /** Sum of task durations executed on the given resource. */
    Seconds busyTime(ResourceId resource) const;

    /** Sum of durations of tasks carrying the given tag. */
    Seconds timeByTag(std::string_view tag) const;

    /**
     * Wall-clock time during which `target` is busy while `other` is
     * idle — e.g. communication not hidden by any computation.
     */
    Seconds exposedTime(ResourceId target, ResourceId other) const;

    /**
     * Wall-clock time during which both resources are simultaneously
     * busy (e.g. overlapped compute and communication).
     */
    Seconds overlappedTime(ResourceId a, ResourceId b) const;

    /** The frozen graph behind this schedule (tasks, CSR deps). */
    const GraphTemplate &graph() const;

    const std::vector<ScheduledTask> &placements() const
    {
        return placed_;
    }

    /** Start/end of one task by id. */
    const ScheduledTask &placement(TaskId id) const;

    /** Resource of one task by id. */
    ResourceId taskResource(TaskId id) const;

    /** Text of one task's label / tag (render-time lookups). */
    std::string_view taskLabel(TaskId id) const;
    std::string_view taskTag(TaskId id) const;

    /** The label/tag interner shared with the simulator. */
    const util::StringInterner &interner() const;

  private:
    using Interval = std::pair<Seconds, Seconds>;

    const std::vector<Interval> &
    busyIntervals(ResourceId resource) const;

    std::shared_ptr<const GraphTemplate> graph_;
    std::vector<ScheduledTask> placed_;
    /** Merged busy intervals per resource, built once in the ctor. */
    std::vector<std::vector<Interval>> busyIntervals_;
    /** Duration sums indexed by resource / by tag id, ditto. */
    std::vector<Seconds> busyTotals_;
    std::vector<Seconds> tagTotals_;
    Seconds makespan_ = 0.0;
};

/** Builds a task graph (CSR-natively), compiles it into a
 *  GraphTemplate, and schedules it. */
class EventSimulator
{
  public:
    /** Register a resource (stream); returns its id. */
    ResourceId addResource(std::string name);

    /**
     * Append a task to a resource's FIFO queue. Dependencies must be
     * previously-added task ids. A dependency on the task added just
     * before this one on the same resource is implied by the FIFO
     * and is not stored (GraphTemplate::deps() lists only the
     * dependencies beyond stream order). Label and tag are interned;
     * in steady state (vocabulary already seen) the only growth is
     * the flat task/edge arrays — no per-task heap vector.
     */
    TaskId addTask(std::string_view label, std::string_view tag,
                   ResourceId resource, Seconds duration,
                   std::span<const TaskId> deps = {});

    TaskId addTask(std::string_view label, std::string_view tag,
                   ResourceId resource, Seconds duration,
                   std::initializer_list<TaskId> deps)
    {
        return addTask(label, tag, resource, duration,
                       std::span<const TaskId>(deps.begin(),
                                               deps.end()));
    }

    std::size_t numTasks() const { return resources_.size(); }
    std::size_t numResources() const { return resourceNames_.size(); }

    /** The label/tag intern table (its size() counts the distinct
     *  strings ever seen — the interning tests pin it down). */
    const util::StringInterner &interner() const { return *interner_; }

    /**
     * Freeze the graph built so far into an immutable, shareable
     * template: every addTask() validation already happened, so
     * replaying the template needs none.
     */
    std::shared_ptr<const GraphTemplate> compile() const;

    /**
     * Execute: each resource runs its tasks in insertion order, each
     * task starting once the resource is free and all deps finished.
     * Equivalent to compile() + one replay() of the base durations.
     */
    Schedule run() const;

  private:
    std::vector<std::string> resourceNames_;
    std::vector<util::StringInterner::Id> labels_;
    std::vector<util::StringInterner::Id> tags_;
    std::vector<ResourceId> resources_;
    std::vector<Seconds> durations_;
    std::vector<std::uint32_t> depOffsets_ = { 0 };
    std::vector<TaskId> depEdges_;
    /** Last task added to each resource (InvalidTask before its
     *  first): the dependency addTask() drops as FIFO-implied. */
    std::vector<TaskId> lastTask_;
    std::shared_ptr<util::StringInterner> interner_ =
        std::make_shared<util::StringInterner>();
};

} // namespace twocs::sim

#endif // TWOCS_SIM_ENGINE_HH
