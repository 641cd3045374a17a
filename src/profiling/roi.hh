/**
 * @file
 * Region-of-interest (ROI) extraction (paper Section 4.2.2, Step 2a).
 *
 * For the overlapped-communication (DP slack) analysis it suffices to
 * execute just the backprop GEMMs of a sub-layer and the matching
 * weight-gradient all-reduce, instead of a whole training iteration.
 * The RoiExtractor builds and profiles exactly those regions.
 */

#ifndef TWOCS_PROFILING_ROI_HH
#define TWOCS_PROFILING_ROI_HH

#include "profiling/profiler.hh"

namespace twocs::profiling {

/** Timings of one compute/communication ROI pair. */
struct SlackRoi
{
    /** Backprop (WG + IG + elementwise) compute time, isolated. */
    Seconds backpropComputeTime = 0.0;
    /** Weight-gradient all-reduce time, isolated. */
    Seconds dpCommTime = 0.0;
    /** Gradient bytes all-reduced. */
    Bytes gradientBytes = 0.0;

    /** Overlapped communication as a fraction of the compute that
     *  is supposed to hide it (>= 1 means comm is exposed). */
    double overlappedCommVsCompute() const;

    /** Remaining compute slack after hiding comm (0 if exposed). */
    Seconds remainingSlack() const;
};

/**
 * A layer's slack ROI folded from already-costed records: per
 * sub-layer (attention, then feed-forward), its backward GEMMs
 * against its DP gradient all-reduces, in record order. Forward
 * records never match, so a profileLayer() profile of the layer gives
 * exactly RoiExtractor::layerSlackRoi(). fatal() when a sub-layer
 * has no DP all-reduce.
 */
SlackRoi layerSlackRoiFromRecords(
    const std::vector<ProfileRecord> &records);

/** Extracts and profiles ROIs on the simulated hardware. */
class RoiExtractor
{
  public:
    explicit RoiExtractor(IterationProfiler profiler);

    /**
     * The DP-slack ROI of one sub-layer: its backward compute region
     * versus its weight-gradient all-reduce across dp_degree
     * replicas. Regions execute in isolation, as in the paper
     * (Section 4.3.3), to avoid interference effects.
     */
    SlackRoi slackRoi(const model::LayerGraphBuilder &graph,
                      model::SubLayer sub, int layer_index = 0) const;

    /** Sum of both sub-layers' ROIs for one layer. */
    SlackRoi layerSlackRoi(const model::LayerGraphBuilder &graph,
                           int layer_index = 0) const;

    const IterationProfiler &profiler() const { return profiler_; }

  private:
    IterationProfiler profiler_;
};

} // namespace twocs::profiling

#endif // TWOCS_PROFILING_ROI_HH
