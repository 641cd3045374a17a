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

/** Immutable derived data cached alongside a ring template in the
 *  process-wide sim::GraphCache (its type-erased aux slot). */
struct RingAux
{
    /** Task id of the final ring step on each device. */
    std::vector<sim::TaskId> finals;
    /** For each compiled task: the device whose arrival time fills
     *  its duration, or -1 for ring steps, whose duration is the
     *  task's base duration (its step multiplicity after any pass
     *  rewriting) times the step time. */
    std::vector<int> fillDevice;
};

/** A ring template resolved through the shared cache, plus the
 *  calling thread's replay buffers. The template and aux rows are
 *  immutable and shared by every thread; the buffers are the one
 *  thread-local piece left. */
struct CompiledRing
{
    std::shared_ptr<const sim::GraphTemplate> graph;
    std::shared_ptr<const RingAux> aux;
    const std::vector<sim::TaskId> *finals = nullptr;
    const std::vector<int> *fillDevice = nullptr;
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
 *  and reduce-scatter (P-1) share a P — and by the pass pipeline's
 *  spec for rewritten variants. The compile callable builds both the
 *  template and its RingAux derived rows; every thread then replays
 *  the one shared immutable copy through its own RingBuffers. */
CompiledRing
compiledRingFor(int p, int steps, const sim::PassPipeline *passes)
{
    const bool rewritten = passes != nullptr && !passes->empty();
    const std::string key =
        "ring|p=" + std::to_string(p) +
        "|steps=" + std::to_string(steps) +
        "|passes=" + (rewritten ? passes->describe() : "");

    const sim::GraphCache::Compiled cached =
        sim::GraphCache::instance().getOrCompile(key, [&] {
            // Arrival tasks (replayed as arrival times), then the ring
            // at unit step durations that replay scales.
            sim::EventSimulator des;
            std::vector<sim::ResourceId> comm(p);
            std::vector<sim::TaskId> arrive(p);
            for (int d = 0; d < p; ++d) {
                comm[d] = des.addResource("dev" + std::to_string(d));
                arrive[d] = des.addTask("arrive", "arrive", comm[d], 0.0);
            }
            std::vector<sim::TaskId> base_finals =
                emitRing(des, comm, std::move(arrive), steps, 1.0,
                         "ring_step", "ring_step");
            const std::shared_ptr<const sim::GraphTemplate> base =
                des.compile();
            auto aux = std::make_shared<RingAux>();
            sim::GraphCache::Compiled out;
            if (rewritten) {
                // Mark the final steps terminal so elimination keeps
                // them and fusion/tiling retargets them, then track
                // where the arrival tasks (template ids 0..p-1)
                // landed.
                const sim::GraphBuilder::Compiled compiled =
                    passes->rewrite(*base, base_finals);
                out.graph = compiled.graph;
                aux->finals = compiled.terminals;
                aux->fillDevice.assign(out.graph->numTasks(), -1);
                for (int d = 0; d < p; ++d) {
                    const sim::TaskId cid =
                        compiled
                            .taskMap[static_cast<std::size_t>(d)];
                    if (cid != sim::InvalidTask) {
                        aux->fillDevice[static_cast<std::size_t>(
                            cid)] = d;
                    }
                }
            } else {
                out.graph = base;
                aux->finals = std::move(base_finals);
                aux->fillDevice.assign(out.graph->numTasks(), -1);
                for (int d = 0; d < p; ++d)
                    aux->fillDevice[static_cast<std::size_t>(d)] = d;
            }
            out.aux = std::move(aux);
            return out;
        });

    thread_local RingBuffers buffers;
    if (buffers.bound.get() != cached.graph.get()) {
        buffers.bound = cached.graph;
        buffers.scratch.bind(*cached.graph);
    }
    buffers.durations.resize(cached.graph->numTasks());

    CompiledRing ring;
    ring.graph = cached.graph;
    ring.aux = sim::GraphCache::auxAs<RingAux>(cached);
    ring.finals = &ring.aux->finals;
    ring.fillDevice = &ring.aux->fillDevice;
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

    const CompiledRing ring = compiledRingFor(p, steps, options.passes);
    // Duration fill mirrors the template's placeholders: an arrival
    // task takes its device's arrival time; a ring step takes its
    // base duration (1.0, or the fused step count after pass
    // rewriting) times the step time.
    const std::vector<Seconds> &base = ring.graph->baseDurations();
    for (std::size_t i = 0; i < base.size(); ++i) {
        (*ring.durations)[i] =
            (*ring.fillDevice)[i] >= 0
                ? arrival_times[static_cast<std::size_t>(
                      (*ring.fillDevice)[i])]
                : base[i] * step_time;
    }
    sim::replay(*ring.graph, *ring.durations, *ring.scratch);

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
