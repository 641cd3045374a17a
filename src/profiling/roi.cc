#include "roi.hh"

#include "util/logging.hh"

namespace twocs::profiling {

double
SlackRoi::overlappedCommVsCompute() const
{
    fatalIf(backpropComputeTime <= 0.0,
            "SlackRoi with no backprop compute time");
    return dpCommTime / backpropComputeTime;
}

Seconds
SlackRoi::remainingSlack() const
{
    return backpropComputeTime > dpCommTime
               ? backpropComputeTime - dpCommTime
               : 0.0;
}

RoiExtractor::RoiExtractor(IterationProfiler profiler)
    : profiler_(std::move(profiler))
{
}

namespace {

/** One sub-layer's share of layerSlackRoiFromRecords(). */
SlackRoi
slackRoiFromRecords(const std::vector<ProfileRecord> &records,
                    model::SubLayer sub)
{
    SlackRoi roi;
    for (const ProfileRecord &r : records) {
        if (r.subLayer != sub)
            continue;
        if (r.role == model::OpRole::BwdCompute &&
            r.kernelKind == hw::KernelKind::Gemm) {
            // The paper's slack ROI pairs the weight-gradient (WG)
            // and error (IG) GEMMs against the gradient all-reduce
            // (Section 3.4, Eq. 7); non-GEMM backward kernels are
            // not part of the extracted region.
            roi.backpropComputeTime += r.duration;
        } else if (r.role == model::OpRole::DpAllReduce) {
            roi.dpCommTime += r.duration;
            roi.gradientBytes += r.bytes;
        }
    }
    fatalIf(roi.gradientBytes <= 0.0,
            "slack ROI found no DP all-reduce; is dpDegree > 1?");
    return roi;
}

/** Cost only the ops of a layer's backward pass that some slack ROI
 *  reads: backward GEMMs and DP gradient all-reduces. */
std::vector<ProfileRecord>
slackRecords(const IterationProfiler &profiler,
             const model::LayerGraphBuilder &graph, int layer_index)
{
    const model::ParallelPlan &par = graph.parallel();
    fatalIf(par.dpDegree < 2,
            "slack ROI needs a data-parallel setup (dpDegree >= 2)");

    std::vector<ProfileRecord> records;
    for (const model::TrainingOp &op :
         graph.backwardLayerOps(layer_index)) {
        if ((op.role == model::OpRole::BwdCompute &&
             op.kernel.kind == hw::KernelKind::Gemm) ||
            op.role == model::OpRole::DpAllReduce)
            records.push_back(profiler.profileOp(op, par));
    }
    return records;
}

} // namespace

SlackRoi
layerSlackRoiFromRecords(const std::vector<ProfileRecord> &records)
{
    const SlackRoi attn =
        slackRoiFromRecords(records, model::SubLayer::Attention);
    const SlackRoi fc =
        slackRoiFromRecords(records, model::SubLayer::FeedForward);

    SlackRoi sum;
    sum.backpropComputeTime =
        attn.backpropComputeTime + fc.backpropComputeTime;
    sum.dpCommTime = attn.dpCommTime + fc.dpCommTime;
    sum.gradientBytes = attn.gradientBytes + fc.gradientBytes;
    return sum;
}

SlackRoi
RoiExtractor::slackRoi(const model::LayerGraphBuilder &graph,
                       model::SubLayer sub, int layer_index) const
{
    return slackRoiFromRecords(
        slackRecords(profiler_, graph, layer_index), sub);
}

SlackRoi
RoiExtractor::layerSlackRoi(const model::LayerGraphBuilder &graph,
                            int layer_index) const
{
    return layerSlackRoiFromRecords(
        slackRecords(profiler_, graph, layer_index));
}

} // namespace twocs::profiling
