#include "lowering.hh"

#include <map>
#include <string>

#include "comm/ring_sim.hh"
#include "profiling/profiler.hh"
#include "util/logging.hh"

namespace twocs::core {

sim::EventSimulator
lowerIteration(const model::LayerGraphBuilder &graph,
               const SystemConfig &system, const LoweringOptions &options)
{
    const model::ParallelPlan &par = graph.parallel();
    const int p = options.devices;
    panicIf(p != 1 && p != par.tpDegree, "lowering onto ", p,
            " devices needs 1 or the TP degree ", par.tpDegree);

    const hw::KernelCostModel kernels = system.kernelModel();
    const hw::Topology topo = system.topology();
    const comm::CollectiveModel coll = system.collectiveModel();
    const comm::CollectiveModel dp_coll =
        options.interNodeDp
            ? system.interNodeCollectiveModel(options.devicesPerNode,
                                              options.interNodeSlowdown)
            : coll;

    sim::EventSimulator des;
    std::vector<sim::ResourceId> comm_streams(p);
    for (int d = 0; d < p; ++d) {
        const std::string suffix = p == 1 ? "" : std::to_string(d);
        des.addResource("compute" + suffix);
        comm_streams[d] = des.addResource("comm" + suffix);
    }

    std::vector<sim::TaskId> deps;
    const auto add = [&](const model::TrainingOp &op, const char *tag,
                         sim::ResourceId resource, Seconds dur) {
        return des.addTask(op.kernel.label, tag, resource, dur, deps);
    };
    const auto depOn = [&](sim::TaskId t) {
        if (t != sim::InvalidTask)
            deps.push_back(t);
    };

    // last[d] is device d's serializing chain (compute + serialized
    // collectives); DP collectives hang off lastCompute[d] instead.
    std::vector<sim::TaskId> last(p, sim::InvalidTask);
    std::vector<sim::TaskId> last_compute(p, sim::InvalidTask);
    std::vector<sim::TaskId> last_dp(p, sim::InvalidTask);
    std::vector<std::map<int, std::vector<sim::TaskId>>> layer_dp(p);

    const bool overlap = par.overlapDpComm;
    // Buckets can span layers, so per-layer gradient readiness is
    // gone: optimizer steps wait for the last bucket instead
    // (framework behaviour), as they do when nothing overlaps.
    const bool defer_optim = options.dpBucketBytes > 0.0 || !overlap;
    std::vector<model::TrainingOp> deferred_dp, deferred_optim;

    const auto lowerCompute = [&](const model::TrainingOp &op) {
        const bool optim = op.role == model::OpRole::OptimizerStep;
        const Seconds dur = kernels.cost(op.kernel);
        for (int d = 0; d < p; ++d) {
            deps.clear();
            depOn(last[d]);
            if (optim && defer_optim) {
                depOn(last_dp[d]); // comm FIFO: earlier DP tasks too
            } else if (optim) {
                for (const sim::TaskId t : layer_dp[d][op.layerIndex])
                    deps.push_back(t);
            }
            last[d] = last_compute[d] =
                add(op, "compute", computeStream(d), dur);
        }
    };

    const auto lowerDp = [&](const model::TrainingOp &op) {
        const Seconds dur =
            dp_coll.cost(profiling::collectiveDescFor(op, par)).total *
            options.commInterference;
        for (int d = 0; d < p; ++d) {
            deps.clear();
            depOn(last_compute[d]);
            last_dp[d] = add(op, "dp_ar", commStream(d), dur);
            layer_dp[d][op.layerIndex].push_back(last_dp[d]);
        }
    };

    const auto lowerSerialized = [&](const model::TrainingOp &op) {
        const bool tp = op.role == model::OpRole::TpAllReduceFwd ||
                        op.role == model::OpRole::TpAllReduceBwd;
        const bool a2a = op.role == model::OpRole::EpAllToAll;
        if (tp && p > 1) {
            // An explicit ring across the group; step timing shares
            // comm::ringStepTime's pinned per-ring share semantics.
            const Seconds step = comm::ringStepTime(
                topo, op.commBytes, p, system.linkEfficiency);
            last = comm::emitRing(des, comm_streams, std::move(last),
                                  2 * (p - 1), step, op.kernel.label,
                                  "ring_step");
            return;
        }
        // Technique 3: the decomposed fraction of a TP/EP collective
        // pipelines with dependent compute, leaving the rest on the
        // chain; the tail runs beside compute and pays interference.
        const Seconds dur =
            coll.cost(profiling::collectiveDescFor(op, par)).total;
        const double f =
            tp || a2a ? options.fineGrainedOverlapFraction : 0.0;
        const char *tag = tp ? "tp_ar" : (a2a ? "ep_a2a" : "plan_coll");
        for (int d = 0; d < p; ++d) {
            deps.clear();
            depOn(last[d]);
            last[d] = add(op, tag, commStream(d), dur * (1.0 - f));
            if (f > 0.0) {
                deps.assign(1, last[d]);
                add(op, "overlap_tail", commStream(d),
                    dur * f * options.commInterference);
            }
        }
    };

    std::vector<model::TrainingOp> ops = graph.iterationOps();
    if (options.dpBucketBytes > 0.0)
        ops = model::coalesceDpAllReduces(std::move(ops),
                                          options.dpBucketBytes);
    for (const model::TrainingOp &op : ops) {
        if (op.overlappable())
            overlap ? lowerDp(op) : deferred_dp.push_back(op);
        else if (op.isComm())
            lowerSerialized(op);
        else if (op.role == model::OpRole::OptimizerStep && defer_optim)
            deferred_optim.push_back(op);
        else
            lowerCompute(op);
    }
    for (const model::TrainingOp &op : deferred_dp)
        lowerDp(op);
    for (const model::TrainingOp &op : deferred_optim)
        lowerCompute(op);
    return des;
}

} // namespace twocs::core
