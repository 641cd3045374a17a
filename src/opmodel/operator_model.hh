/**
 * @file
 * Operator-level projection models (paper Section 4.2.2, Step 2b).
 *
 * Instead of executing every future Transformer configuration, the
 * paper profiles a single baseline (BERT) once and projects each
 * operator's runtime to new hyperparameters by scaling its measured
 * time with an algorithmic complexity predictor:
 *   - GEMMs scale with their FLOP count (linear in SL and B,
 *     quadratic in H),
 *   - element-wise operators (LayerNorm, softmax, GELU, ...) scale
 *     with their element count (linear in SL, B and H),
 *   - all-reduces scale with payload bytes.
 * Projection error relative to ground truth comes from the size
 * dependence of hardware efficiency, which the predictors ignore —
 * the same error source the paper reports (~7-15%, Section 4.3.8).
 */

#ifndef TWOCS_OPMODEL_OPERATOR_MODEL_HH
#define TWOCS_OPMODEL_OPERATOR_MODEL_HH

#include <map>
#include <string>

#include "model/layer_graph.hh"
#include "profiling/profiler.hh"
#include "util/units.hh"

namespace twocs::opmodel {

/** A calibrated (measured duration, predictor value) pair. */
struct BaselinePoint
{
    Seconds duration = 0.0;
    double predictor = 0.0;
};

/** Projected per-iteration time breakdown for a target model. */
struct ProjectedBreakdown
{
    Seconds fwdCompute = 0.0;
    Seconds bwdCompute = 0.0;
    Seconds optimizer = 0.0;
    /** Serialized TP activation/error all-reduces. */
    Seconds serializedComm = 0.0;
    /** DP gradient all-reduces (isolated cost; overlappable). */
    Seconds dpComm = 0.0;

    Seconds computeTime() const
    {
        return fwdCompute + bwdCompute + optimizer;
    }

    /** Iteration time with TP comm serialized and DP comm perfectly
     *  overlapped with (and here assumed hidden by) backprop. */
    Seconds criticalPathTime() const
    {
        return computeTime() + serializedComm;
    }

    /** Serialized communication's share of the critical path —
     *  the quantity plotted in Figures 10 and 12. */
    double serializedCommFraction() const
    {
        return serializedComm / criticalPathTime();
    }
};

/**
 * Per-operator scaling model calibrated from one baseline profile.
 *
 * Compute operators are keyed by their stable label ("fc1_fwd", ...);
 * collectives are calibrated from a single all-reduce measurement and
 * projected linearly in payload size.
 */
class OperatorScalingModel
{
  public:
    /**
     * Calibrate from the baseline model: profiles one layer
     * (forward + backward) for the compute operators and one
     * all-reduce (ar_calib_bytes across ar_calib_participants
     * devices, defaults matching the paper's 4-GPU node) for the
     * communication model.
     */
    static OperatorScalingModel
    calibrate(const profiling::IterationProfiler &profiler,
              const model::LayerGraphBuilder &baseline,
              Bytes ar_calib_bytes = 64.0 * 1024.0 * 1024.0,
              int ar_calib_participants = 4);

    /**
     * Multi-point calibration: profiles the baseline layer at the
     * baseline hyperparameters AND at each additional sweep point,
     * then least-squares fits time = slope * predictor through the
     * origin per operator (and across an all-reduce payload sweep).
     * Averages out the single-point model's bias toward one
     * efficiency operating point; compare in the
     * ablation-opmodel-fitting figure.
     */
    static OperatorScalingModel
    calibrateFitted(const profiling::IterationProfiler &profiler,
                    const model::LayerGraphBuilder &baseline,
                    const std::vector<model::Hyperparams> &sweep_points,
                    const std::vector<Bytes> &ar_sweep_bytes =
                        { 16.0 * 1024 * 1024, 64.0 * 1024 * 1024,
                          256.0 * 1024 * 1024 },
                    int ar_calib_participants = 4);

    /** Predictor value for an operator (FLOPs/elements/bytes). */
    static double predictorFor(const model::TrainingOp &op);

    /**
     * Reassemble a model from previously saved baselines (see
     * opmodel/calibration_io.hh). All points must be positive.
     */
    static OperatorScalingModel
    fromBaselines(std::map<std::string, BaselinePoint> compute,
                  BaselinePoint all_reduce, BaselinePoint all_to_all);

    /** Project the duration of one target operator. */
    Seconds projectOp(const model::TrainingOp &op) const;

    /** Project a full training iteration of the target model. */
    ProjectedBreakdown
    projectIteration(const model::LayerGraphBuilder &target) const;

    /** Calibrated compute-operator baselines, keyed by label. */
    const std::map<std::string, BaselinePoint> &computeBaselines() const
    {
        return computeBaselines_;
    }

    /** Calibrated all-reduce baseline. */
    const BaselinePoint &allReduceBaseline() const
    {
        return allReduceBaseline_;
    }

    /** Calibrated all-to-all baseline (MoE extension). */
    const BaselinePoint &allToAllBaseline() const
    {
        return allToAllBaseline_;
    }

  private:
    OperatorScalingModel() = default;

    std::map<std::string, BaselinePoint> computeBaselines_;
    BaselinePoint allReduceBaseline_;
    BaselinePoint allToAllBaseline_;
};

} // namespace twocs::opmodel

#endif // TWOCS_OPMODEL_OPERATOR_MODEL_HH
