/**
 * @file
 * The 3D-parallelism zoo study: every parallelZoo() model profiled
 * under its published-scale ParallelPlan (TP x PP x DP/ZeRO x EP),
 * plus direct checks of the ZeRO / pipeline collective lowering
 * invariants the plan machinery is built on.
 *
 * The `--bench-json` metrics carry `collective_lowering_*` keys that
 * CI schema-validates: they assert the wire-volume identities
 * (ZeRO-2's reduce-scatter + all-gather moves exactly the monolithic
 * all-reduce's bytes; ZeRO-3's forward+backward parameter all-gathers
 * double the wire volume; a pipeline boundary send moves
 * precision * B * SL * H bytes) that
 * make the lowering a refactoring of the communication volume rather
 * than a change to it. `zoo_study_ms` is the wall time of one
 * runParallelZooStudy() call (CI checks the key, never its value).
 */

#include <chrono>

#include "bench_common.hh"

#include "comm/collectives.hh"
#include "core/sweep.hh"
#include "core/system_config.hh"
#include "model/zoo.hh"

using namespace twocs;

int
main(int argc, char **argv)
{
    const exec::RunnerOptions runner =
        bench::runnerOptions(argc, argv, "zoo3d_parallel_sweep");
    bench::BenchJson report("zoo3d_parallel_sweep",
                            bench::benchJsonPath(argc, argv));

    bench::banner("3D zoo", "model zoo under published-scale "
                            "parallel plans");

    const core::SystemConfig system;
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    const std::vector<core::ZooStudyPoint> points =
        core::runParallelZooStudy(system, runner);
    const std::chrono::duration<double, std::milli> study_ms =
        Clock::now() - start;

    TextTable t({ "Model", "Plan", "Devices", "Compute(s)",
                  "SerComm(s)", "DpComm(s)", "CommFrac" });
    double max_frac = 0.0;
    std::string max_model;
    for (const core::ZooStudyPoint &p : points) {
        t.addRowOf(p.model, p.plan.summary(),
                   static_cast<long>(p.devices), p.computeTime,
                   p.serializedCommTime, p.dpCommTime,
                   p.commFraction());
        if (p.commFraction() > max_frac) {
            max_frac = p.commFraction();
            max_model = p.model;
        }
    }
    t.print(std::cout);

    bench::checkClaim("every zoo plan profiles to a positive "
                      "iteration",
                      [&] {
                          for (const core::ZooStudyPoint &p : points) {
                              if (p.computeTime <= 0.0)
                                  return false;
                          }
                          return !points.empty();
                      }());
    bench::checkBand("worst-case serialized comm fraction", max_frac,
                     0.0, 0.95);
    std::printf("most comm-bound plan: %s (%.1f%% serialized comm)\n",
                max_model.c_str(), 100.0 * max_frac);

    // --- collective lowering invariants (the ZeRO / PP identities) --
    const comm::CollectiveModel coll = system.collectiveModel();
    const int dp = 16;
    const Bytes grads = 2.0 * 175e9; // GPT-3-scale fp16 gradients
    const comm::CollectiveCost ar = coll.cost(
        { comm::CollectiveKind::AllReduce, grads, dp });
    const comm::CollectiveCost rs = coll.cost(
        { comm::CollectiveKind::ReduceScatter, grads, dp });
    const comm::CollectiveCost ag = coll.cost(
        { comm::CollectiveKind::AllGather, grads / dp, dp });
    const double zero2_ratio =
        (rs.bytesOnWire + ag.bytesOnWire) / ar.bytesOnWire;
    // Stage 3 re-gathers the sharded parameters before each pass on
    // top of the stage-2 gradient lowering: one W/dp all-gather
    // forward and one backward, each moving the reduce-scatter's wire
    // bytes again (weights and gradients share a precision).
    const double zero3_ratio =
        (rs.bytesOnWire + 3.0 * ag.bytesOnWire) / ar.bytesOnWire;
    bench::checkBand("ZeRO-2 RS+AG wire bytes == all-reduce wire "
                     "bytes",
                     zero2_ratio, 0.999, 1.001);
    bench::checkBand("ZeRO-3 fwd+bwd param all-gathers double the "
                     "wire",
                     zero3_ratio, 1.999, 2.001);

    const Bytes boundary = 2.0 * 1 * 2048 * 12288; // fp16 B*SL*H
    const comm::CollectiveCost p2p = coll.cost(
        { comm::CollectiveKind::PointToPoint, boundary, 2 });
    bench::checkBand("PP boundary send moves prec*B*SL*H bytes",
                     p2p.bytesOnWire / boundary, 0.999, 1.001);

    report.set("zoo_models", static_cast<double>(points.size()));
    report.set("zoo_max_comm_fraction", max_frac);
    report.set("zoo_study_ms", study_ms.count());
    report.set("collective_lowering_zero2_wire_ratio", zero2_ratio);
    report.set("collective_lowering_zero3_wire_ratio", zero3_ratio);
    report.set("collective_lowering_pp_p2p_bytes", p2p.bytesOnWire);
    report.set("collective_lowering_ar_wire_bytes", ar.bytesOnWire);
    return report.write() ? 0 : 1;
}
