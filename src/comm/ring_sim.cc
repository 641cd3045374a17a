#include "ring_sim.hh"

#include <algorithm>
#include <memory>
#include <string>

#include "hw/efficiency.hh"
#include "obs/obs.hh"
#include "sim/graph_cache.hh"
#include "util/logging.hh"

namespace twocs::comm {

namespace {

/** A ring template resolved through the shared cache, plus the
 *  calling thread's replay buffers. The template and its final-step
 *  ids are immutable and shared by every thread; the buffers are the
 *  one thread-local piece left. */
struct CompiledRing
{
    std::shared_ptr<const sim::GraphTemplate> graph;
    /** Task id of the final ring step on each device (the cache
     *  row's aux slot). */
    std::shared_ptr<const std::vector<sim::TaskId>> finals;
    sim::ReplayScratch *scratch = nullptr;
    std::vector<Seconds> *durations = nullptr;
};

/** Per-thread replay buffers, shared across every ring key the
 *  thread touches (one arena, rebound per template — the explicit
 *  bind() opt-in from the scratch contract). The `bound` member pins
 *  the template the scratch was last bound to, so an eviction from
 *  the shared cache can never free a template while a thread-local
 *  raw pointer still refers to it. */
struct RingBuffers
{
    std::shared_ptr<const sim::GraphTemplate> bound;
    sim::ReplayScratch scratch;
    std::vector<Seconds> durations;
};

/** Resolve a ring template through the process-wide graph cache.
 *  Keyed by device count AND step count — all-reduce (2(P-1) steps)
 *  and reduce-scatter (P-1) share a P. The compile callable builds
 *  the template and its final-step ids; every thread then replays
 *  the one shared immutable copy through its own RingBuffers. */
CompiledRing
compiledRingFor(int p, int steps)
{
    const std::string key = "ring|p=" + std::to_string(p) +
                            "|steps=" + std::to_string(steps);

    const sim::GraphCache::Compiled cached =
        sim::GraphCache::instance().getOrCompile(key, [&] {
            // Arrival tasks 0..p-1 (replayed as arrival times), then
            // the ring steps (replayed at the step time).
            sim::EventSimulator des;
            std::vector<sim::ResourceId> comm(p);
            std::vector<sim::TaskId> arrive(p);
            for (int d = 0; d < p; ++d) {
                comm[d] = des.addResource("dev" + std::to_string(d));
                arrive[d] = des.addTask("arrive", "arrive", comm[d], 0.0);
            }
            auto finals = std::make_shared<std::vector<sim::TaskId>>(
                emitRing(des, comm, std::move(arrive), steps, 1.0,
                         "ring_step", "ring_step"));
            return sim::GraphCache::Compiled{ des.compile(),
                                              std::move(finals) };
        });

    thread_local RingBuffers buffers;
    if (buffers.bound.get() != cached.graph.get()) {
        buffers.bound = cached.graph;
        buffers.scratch.bind(*cached.graph);
    }
    buffers.durations.resize(cached.graph->numTasks());

    CompiledRing ring;
    ring.graph = cached.graph;
    ring.finals = sim::GraphCache::auxAs<std::vector<sim::TaskId>>(cached);
    ring.scratch = &buffers.scratch;
    ring.durations = &buffers.durations;
    return ring;
}

} // namespace

std::vector<sim::TaskId>
emitRing(sim::EventSimulator &des,
         const std::vector<sim::ResourceId> &streams,
         std::vector<sim::TaskId> entry, int steps, Seconds step,
         std::string_view label, std::string_view tag)
{
    const std::size_t p = streams.size();
    panicIf(entry.size() != p, "emitRing: ", entry.size(),
            " entry tasks for ", p, " streams");
    std::vector<sim::TaskId> cur(p), deps;
    for (int s = 0; s < steps; ++s) {
        for (std::size_t d = 0; d < p; ++d) {
            deps.clear();
            for (const sim::TaskId t : { entry[d], entry[(d + p - 1) % p] }) {
                if (t != sim::InvalidTask)
                    deps.push_back(t);
            }
            cur[d] = des.addTask(label, tag, streams[d], step, deps);
        }
        entry.swap(cur);
    }
    return entry;
}

Seconds
ringStepTime(const hw::Topology &topology, Bytes payload, int devices,
             const hw::LinkEfficiencyParams &link_params)
{
    fatalIf(devices < 2, "ring step time needs >= 2 devices");
    fatalIf(payload <= 0.0, "ring step time needs a payload");
    // Per-step transfer: each device forwards one chunk of S/P
    // bytes, split across its share of the parallel rings.
    const int rings = topology.parallelRings();
    const Bytes chunk = payload / devices;
    const Bytes per_ring = chunk / rings;
    // Utilization follows the per-ring share — what each physical
    // link actually carries per step. The efficiency lookup floors
    // degenerate sub-byte shares at one byte so the saturation
    // curve stays defined; the wire term uses the true share.
    const double eff = hw::linkEfficiency(
        std::max(per_ring, 1.0), link_params);
    return per_ring / (topology.intraLink().bandwidth * eff) +
           topology.intraLink().latency;
}

RingSimResult
simulateRingCollective(const hw::Topology &topology, Bytes payload,
                       const std::vector<Seconds> &arrival_times,
                       const RingSimOptions &options)
{
    const int p = static_cast<int>(arrival_times.size());
    TWOCS_OBS_SPAN(obs::Category::Comm, "comm.ring.allreduce", [&] {
        return "devices=" + std::to_string(p) +
               " payload_bytes=" + std::to_string(
                                       static_cast<long long>(payload));
    });
    fatalIf(p < 2, "ring simulation needs >= 2 devices");
    fatalIf(payload <= 0.0, "ring simulation needs a payload");
    for (Seconds t : arrival_times)
        fatalIf(t < 0.0, "arrival times must be non-negative");

    const Seconds step_time =
        ringStepTime(topology, payload, p, options.linkParams);
    const int steps = options.collective == RingCollective::AllReduce
                          ? 2 * (p - 1)
                          : p - 1;

    const CompiledRing ring = compiledRingFor(p, steps);
    // Arrival task d takes device d's arrival time; every ring step
    // after them takes the step time.
    std::vector<Seconds> &durations = *ring.durations;
    std::copy(arrival_times.begin(), arrival_times.end(),
              durations.begin());
    std::fill(durations.begin() + p, durations.end(), step_time);
    sim::replay(*ring.graph, durations, *ring.scratch);

    RingSimResult result;
    result.schedule =
        sim::Schedule(ring.graph, ring.scratch->placements());

    // The collective lasts from the latest arrival to the latest
    // finish. The earliest device is done computing at its arrival
    // but cannot finish before finishTime: everything beyond its own
    // collective share is stall.
    result.deviceFinish.resize(p);
    Seconds latest_arrival = 0.0;
    Seconds earliest_arrival = 1e300;
    for (int d = 0; d < p; ++d) {
        result.deviceFinish[d] =
            result.schedule.placement((*ring.finals)[d]).end;
        result.finishTime =
            std::max(result.finishTime, result.deviceFinish[d]);
        latest_arrival = std::max(latest_arrival, arrival_times[d]);
        earliest_arrival =
            std::min(earliest_arrival, arrival_times[d]);
    }
    result.collectiveTime = result.finishTime - latest_arrival;
    // Unstalled, the earliest device would finish at its arrival
    // plus its steps. Summing them one at a time, as replay does,
    // makes uniform arrivals report exactly zero stall.
    Seconds unstalled = earliest_arrival;
    for (int s = 0; s < steps; ++s)
        unstalled += step_time;
    result.maxStallTime =
        std::max(0.0, result.finishTime - unstalled);
    return result;
}

} // namespace twocs::comm
