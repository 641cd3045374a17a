/**
 * @file
 * Kernel-level profiler over the simulated hardware (the rocprof
 * stand-in, paper Section 4.3.3).
 *
 * The IterationProfiler walks a model's operator stream, costs every
 * kernel on the KernelCostModel and every collective on the
 * CollectiveModel, and emits one ProfileRecord per launch — the same
 * shape of data rocprof produces on the real machine. Everything
 * downstream (ROI extraction, operator-model calibration) consumes
 * Profiles rather than touching the cost models directly, mirroring
 * how the paper's methodology only sees measured timelines.
 */

#ifndef TWOCS_PROFILING_PROFILER_HH
#define TWOCS_PROFILING_PROFILER_HH

#include <array>
#include <string>
#include <vector>

#include "comm/collectives.hh"
#include "hw/kernels.hh"
#include "model/layer_graph.hh"
#include "util/units.hh"

namespace twocs::profiling {

/** One profiled kernel or collective launch. */
struct ProfileRecord
{
    /** Stable operator label ("fc1_fwd", "tp_allreduce_fwd", ...). */
    std::string label;
    model::OpRole role = model::OpRole::FwdCompute;
    model::SubLayer subLayer = model::SubLayer::Attention;
    int layerIndex = 0;

    Seconds duration = 0.0;

    /** Work descriptors, for calibration. */
    FlopCount flops = 0.0;
    Bytes bytes = 0.0;
    hw::KernelKind kernelKind = hw::KernelKind::Gemm;
    hw::GemmDims gemm;
    std::int64_t elems = 0;

    bool isComm() const { return model::isCommRole(role); }
};

/**
 * Lower one communication op to its collective descriptor: the kind
 * follows the op's role, the participant count comes from the plan's
 * matching axis (TP / DP / EP; pipeline sends are pairwise).
 */
comm::CollectiveDesc collectiveDescFor(const model::TrainingOp &op,
                                       const model::ParallelPlan &par);

/**
 * Per-role time sums plus the running total, each accumulated in
 * issue order. The group sums add their per-role sums in the order
 * of model::computeRoles / serializedCommRoles / dpCommRoles, so a
 * Profile and IterationProfiler::iterationTotals() agree bit for bit.
 */
struct RoleTotals
{
    std::array<Seconds, model::numOpRoles> byRole{};
    /** Sum of every duration (serialized execution time). */
    Seconds total = 0.0;

    void add(model::OpRole role, Seconds duration)
    {
        byRole[model::roleIndex(role)] += duration;
        total += duration;
    }

    Seconds time(model::OpRole role) const
    {
        return byRole[model::roleIndex(role)];
    }

    /** Sum over the compute roles (fwd + bwd + optimizer). */
    Seconds computeTime() const;
    /** Sum over the serialized communication roles. */
    Seconds serializedCommTime() const;
    /** Sum over the overlappable DP gradient roles. */
    Seconds dpCommTime() const;
};

/** A recorded execution (an iteration, a layer, or an ROI). */
class Profile
{
  public:
    void add(ProfileRecord record);

    const std::vector<ProfileRecord> &records() const
    {
        return records_;
    }
    bool empty() const { return records_.empty(); }
    std::size_t size() const { return records_.size(); }

    /** Sum of all record durations (serialized execution time). */
    Seconds totalTime() const { return totals_.total; }

    /** Sum of durations for records with the given role. */
    Seconds timeByRole(model::OpRole role) const
    {
        return totals_.time(role);
    }

    Seconds computeTime() const { return totals_.computeTime(); }
    Seconds serializedCommTime() const
    {
        return totals_.serializedCommTime();
    }
    Seconds dpCommTime() const { return totals_.dpCommTime(); }

    /** All records with a given label, in issue order. */
    std::vector<ProfileRecord> byLabel(const std::string &label) const;

    /** The single record with the label in the given layer. */
    const ProfileRecord &find(const std::string &label,
                              int layer_index) const;

  private:
    std::vector<ProfileRecord> records_;
    RoleTotals totals_;
};

/** Runs operator streams against the simulated hardware. */
class IterationProfiler
{
  public:
    IterationProfiler(hw::KernelCostModel kernel_model,
                      comm::CollectiveModel collective_model);

    const hw::KernelCostModel &kernelModel() const
    {
        return kernelModel_;
    }
    const comm::CollectiveModel &collectiveModel() const
    {
        return collectiveModel_;
    }

    /** Cost one operator (collective participants from `par`). */
    ProfileRecord profileOp(const model::TrainingOp &op,
                            const model::ParallelPlan &par) const;

    /** Profile an explicit operator stream. */
    Profile profileOps(const std::vector<model::TrainingOp> &ops,
                       const model::ParallelPlan &par) const;

    /** Profile a full training iteration of the model. */
    Profile profileIteration(const model::LayerGraphBuilder &graph) const;

    /**
     * The role sums of profileIteration(graph), bit for bit, without
     * materialising the stream: costs each op of the iteration's
     * layer templates once and folds along the periodic shape.
     */
    RoleTotals iterationTotals(const model::LayerGraphBuilder &graph) const;

    /** Profile only one layer's forward + backward (cheap baseline). */
    Profile profileLayer(const model::LayerGraphBuilder &graph,
                         int layer_index) const;

  private:
    /** Duration of one operator, as profileOp() records it. */
    Seconds opDuration(const model::TrainingOp &op,
                       const model::ParallelPlan &par) const;

    hw::KernelCostModel kernelModel_;
    comm::CollectiveModel collectiveModel_;
};

} // namespace twocs::profiling

#endif // TWOCS_PROFILING_PROFILER_HH
