/**
 * @file
 * Compiled task-graph templates: build once, replay many.
 *
 * The straggler and jitter studies run the discrete-event simulator
 * over thousands of perturbed trials of the *same* task graph. The
 * graph's shape — tasks, resources, dependencies — never changes
 * between trials; only the duration vector does. A GraphTemplate
 * freezes that shape once: tasks are stored flat (interned label/tag
 * ids, resource, base duration in parallel arrays) and dependencies
 * in CSR form (one offsets[] plus one edges[] array instead of a
 * per-task heap vector), all validated at compile time.
 *
 * The CSR holds only the dependencies beyond stream order. A task
 * that depends on the task just before it on its own resource needs
 * no edge: replay starts each task at its resource's free time,
 * which *is* that predecessor's end, so the max over the edge could
 * never move the start, for any duration vector. The builder drops
 * such edges once (EventSimulator::addTask), which removes about
 * half the edges of a lowered ring iteration — every ring step and
 * every compute task waits on its stream predecessor. replay()
 * then runs the template against a caller-supplied duration vector
 * into a caller-owned ReplayScratch, so a trial performs **zero**
 * allocations and no re-validation — a what-if sweep is a graph
 * *replay* problem, not a graph *construction* problem.
 *
 * replay() is the one production engine (DESIGN.md §15): one
 * duration vector, one forward pass. The Monte Carlo trials, the
 * ring collectives and the what-if queries ("this operator 5%
 * slower, new makespan?") all run on it.
 *
 * replayBatch() advances N duration vectors through one lane-major
 * forward pass. No product code calls it; it is kept, as one
 * portable loop, only because the frozen perfbench per-layer probe
 * (perfbench/layers.cc) links it.
 *
 * Thread contract: a GraphTemplate is immutable after compile and
 * may be replayed concurrently from any number of threads, each with
 * its own scratch arena (the parallel trial loop gives every worker
 * one).
 */

#ifndef TWOCS_SIM_GRAPH_HH
#define TWOCS_SIM_GRAPH_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/interner.hh"
#include "util/units.hh"

namespace twocs::sim {

using TaskId = int;
using ResourceId = int;

/** An invalid task id (usable as "no dependency"). */
inline constexpr TaskId InvalidTask = -1;

/** Execution record of one task. */
struct ScheduledTask
{
    TaskId id = InvalidTask;
    Seconds start = 0.0;
    Seconds end = 0.0;
};

class GraphTemplate;
class ReplayScratch;
class BatchScratch;
void replay(const GraphTemplate &graph,
            std::span<const Seconds> durations,
            ReplayScratch &scratch);
void replayBatch(const GraphTemplate &graph,
                 std::span<const Seconds> durations_soa,
                 std::size_t lanes, BatchScratch &scratch);

/**
 * An immutable, validated task graph in structure-of-arrays layout
 * with CSR dependencies. Built by EventSimulator::compile(); see the
 * file comment for the replay lifecycle.
 */
class GraphTemplate
{
  public:
    GraphTemplate() = default;

    std::size_t numTasks() const { return resources_.size(); }
    std::size_t numResources() const { return resourceNames_.size(); }
    /** Dependencies stored beyond stream order (see deps()). */
    std::size_t numEdges() const { return depEdges_.size(); }

    /**
     * Unique per compiled template within the process, never 0. It
     * names a template where its address cannot: a freed template's
     * storage may be reused by the next one compiled.
     */
    std::uint64_t serial() const { return serial_; }

    /** Name of a resource (stream), as registered. */
    const std::string &resourceName(ResourceId resource) const;

    ResourceId taskResource(TaskId id) const;
    Seconds baseDuration(TaskId id) const;
    /** The durations the graph was built with, one per task — the
     *  replay input for an unperturbed trial. */
    const std::vector<Seconds> &baseDurations() const
    {
        return durations_;
    }

    util::StringInterner::Id taskLabelId(TaskId id) const;
    util::StringInterner::Id taskTagId(TaskId id) const;
    std::string_view taskLabel(TaskId id) const;
    std::string_view taskTag(TaskId id) const;

    /** Dependencies of one task beyond stream order: every declared
     *  dependency except the task's predecessor on its own resource,
     *  which the FIFO already implies (a view into the CSR edges
     *  array). */
    std::span<const TaskId> deps(TaskId id) const;

    /** The label/tag intern table shared with the builder. */
    const util::StringInterner &interner() const { return *interner_; }
    const std::shared_ptr<const util::StringInterner> &
    internerPtr() const
    {
        return interner_;
    }

  private:
    friend class EventSimulator;
    friend void replay(const GraphTemplate &,
                       std::span<const Seconds>, ReplayScratch &);
    friend void replayBatch(const GraphTemplate &,
                            std::span<const Seconds>, std::size_t,
                            BatchScratch &);

    std::vector<std::string> resourceNames_;
    std::vector<util::StringInterner::Id> labels_;
    std::vector<util::StringInterner::Id> tags_;
    std::vector<ResourceId> resources_;
    std::vector<Seconds> durations_;
    /** CSR dependencies beyond stream order: task i depends on
     *  depEdges_[depOffsets_[i] .. depOffsets_[i + 1]). */
    std::vector<std::uint32_t> depOffsets_;
    std::vector<TaskId> depEdges_;
    /** (tag id, task count) for every tag in use, by ascending id;
     *  built once at compile for the per-call "sim.replay" span. */
    std::vector<std::pair<util::StringInterner::Id, std::uint32_t>>
        tagCounts_;
    std::shared_ptr<const util::StringInterner> interner_;
    std::uint64_t serial_ = 0;
};

/**
 * Caller-owned, reusable replay buffers plus the cheap aggregates a
 * trial needs (makespan, per-resource busy totals). bind() sizes the
 * buffers for a template; after the first replay against a given
 * shape, further replays allocate nothing.
 *
 * Binding contract: a scratch remembers the template it was bound
 * to. replay() binds an unbound scratch automatically, but refuses
 * (panics) a scratch still bound to a *different* template — reusing
 * one arena across templates of different shapes used to silently
 * re-allocate, which let a stale-scratch bug alias buffers between
 * graphs. Callers that deliberately recycle one arena across
 * templates (the thread-local worker pools) opt in with an explicit
 * bind() per graph.
 */
class ReplayScratch
{
  public:
    /**
     * (Re)size every buffer for `graph` and adopt it as the bound
     * template. Rebinding to a new template is the explicit opt-in
     * for arena reuse; replaying against a template the scratch is
     * not bound to panics instead of silently re-allocating.
     */
    void bind(const GraphTemplate &graph);

    /** The template this scratch is bound to (nullptr before the
     *  first bind/replay). */
    const GraphTemplate *boundTemplate() const { return bound_; }

    /** Start/end of every task, in task-id order (valid after a
     *  replay; reused — copy out what must outlive the next one). */
    const std::vector<ScheduledTask> &placements() const
    {
        return placed_;
    }

    /** Completion time of the last task of the latest replay. */
    Seconds makespan() const { return makespan_; }

    /** Sum of executed durations on one resource, accumulated in
     *  task order (bit-identical to Schedule::busyTime). */
    Seconds busyTotal(ResourceId resource) const;

  private:
    friend void replay(const GraphTemplate &,
                       std::span<const Seconds>, ReplayScratch &);

    std::vector<ScheduledTask> placed_;
    std::vector<Seconds> resourceFree_;
    std::vector<Seconds> busyTotals_;
    Seconds makespan_ = 0.0;
    const GraphTemplate *bound_ = nullptr;
};

/**
 * Lane-major structure-of-arrays buffers for replayBatch(): lane l
 * of task i lives at index i * lanes + l, so the per-task inner
 * loops touch `lanes` adjacent doubles. Same binding contract as
 * ReplayScratch (bind() is the explicit opt-in for reuse across
 * templates; the lane width may change freely between calls).
 */
class BatchScratch
{
  public:
    void bind(const GraphTemplate &graph, std::size_t lanes);

    /** Per-lane aggregates of the latest replayBatch(). */
    Seconds makespan(std::size_t lane) const;
    Seconds busyTotal(ResourceId resource, std::size_t lane) const;
    /** Completion time of one task in one lane. */
    Seconds taskEnd(TaskId id, std::size_t lane) const;

  private:
    friend void replayBatch(const GraphTemplate &,
                            std::span<const Seconds>, std::size_t,
                            BatchScratch &);

    const GraphTemplate *bound_ = nullptr;
    std::size_t lanes_ = 0;
    std::vector<Seconds> ends_;         // numTasks x lanes
    std::vector<Seconds> ready_;        // lanes (one task's row)
    std::vector<Seconds> resourceFree_; // numResources x lanes
    std::vector<Seconds> busyTotals_;   // numResources x lanes
    std::vector<Seconds> makespans_;    // lanes
};

/**
 * Run `graph` with the given per-task durations (empty span selects
 * the template's base durations) into `scratch`. Dependencies were
 * validated at compile time, so this is a single forward pass — no
 * allocation (once scratch is bound), no validation beyond the
 * durations size check. Tracing costs one check per call: a single
 * "sim.replay" span whose args carry the per-tag task counts.
 */
void replay(const GraphTemplate &graph,
            std::span<const Seconds> durations,
            ReplayScratch &scratch);

/**
 * Advance `lanes` duration vectors through one forward pass over the
 * template. durations_soa holds lane l of task i at i * lanes + l
 * (an empty span broadcasts the base durations to every lane). Each
 * lane's results — placements, makespan, busy totals — are
 * bit-identical to a sequential replay() of that lane's durations:
 * the per-lane floating-point op sequence is exactly the sequential
 * one, only interleaved across lanes. Like replay(), it records one
 * span per pass ("sim.replay_batch"), never one per task.
 */
void replayBatch(const GraphTemplate &graph,
                 std::span<const Seconds> durations_soa,
                 std::size_t lanes, BatchScratch &scratch);

} // namespace twocs::sim

#endif // TWOCS_SIM_GRAPH_HH
