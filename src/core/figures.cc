#include "figures.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <utility>

#include "analytic/pipeline.hh"
#include "analytic/trends.hh"
#include "comm/ring_sim.hh"
#include "core/amdahl.hh"
#include "core/case_study.hh"
#include "core/cost_study.hh"
#include "core/inference_study.hh"
#include "core/planner.hh"
#include "core/precision_study.hh"
#include "core/requirements.hh"
#include "core/sensitivity.hh"
#include "core/slack.hh"
#include "core/sweep.hh"
#include "hw/catalog.hh"
#include "model/layer_graph.hh"
#include "model/memory.hh"
#include "model/zoo.hh"
#include "opmodel/accuracy.hh"
#include "opmodel/operator_model.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace twocs::core {

namespace {

using Claims = std::vector<FigureClaim>;

void
show(const TextTable &table, const FigureOptions &options,
     std::ostream &os)
{
    options.csv ? table.printCsv(os) : table.print(os);
}

/** The command line's runner options under this figure's study. */
exec::RunnerOptions
runnerFor(const FigureOptions &options, const char *study)
{
    exec::RunnerOptions runner = options.runner;
    runner.study = study;
    return runner;
}

/** A copy of `base` with its FLOP rate scaled `flop_scale` times. */
SystemConfig
scaledFlops(const SystemConfig &base, double flop_scale)
{
    SystemConfig sys = base;
    sys.flopScale = base.flopScale * flop_scale;
    return sys;
}

/** A numeric claim: `observed` must lie in [lo, hi]. */
FigureClaim
band(std::string name, double observed, double lo, double hi)
{
    return { std::move(name), observed, lo, hi };
}

/** A boolean claim: the band [1, 1]. */
FigureClaim
check(std::string name, bool holds)
{
    return { std::move(name), holds ? 1.0 : 0.0, 1.0, 1.0 };
}

// --- Figure 2: the table-2-style 3D zoo ---------------------------

void
renderZoo3d(const FigureOptions &o, std::ostream &os)
{
    // Every published configuration profiled ground-truth under its
    // full plan.
    const auto points =
        runParallelZooStudy(o.system, runnerFor(o, "sweep_zoo3d"));
    TextTable t({ "model", "plan", "devices", "compute",
                  "serialized_comm", "dp_comm", "comm_fraction" });
    for (const ZooStudyPoint &p : points) {
        t.addRowOf(p.model, p.plan.summary(),
                   static_cast<long>(p.devices),
                   formatSeconds(p.computeTime),
                   formatSeconds(p.serializedCommTime),
                   formatSeconds(p.dpCommTime), p.commFraction());
    }
    show(t, o, os);
}

Claims
zoo3dClaims()
{
    return {};
}

// --- Figure 6: memory demand vs device capacity -------------------

void
renderFigure6(const FigureOptions &o, std::ostream &os)
{
    const auto points =
        analytic::memoryTrend(model::modelZoo(), hw::allDevices());
    TextTable t({ "Model", "Year", "H*SL demand (norm)",
                  "device capacity (norm)", "demand/capacity gap" });
    for (const auto &p : points) {
        t.addRowOf(p.name, p.year, p.demandProxyNorm, p.capacityNorm,
                   p.gap);
    }
    show(t, o, os);
}

Claims
figure6Claims()
{
    const auto points =
        analytic::memoryTrend(model::modelZoo(), hw::allDevices());
    const auto &mid = points[points.size() / 2];
    return {
        check("the demand/capacity gap widens monotonically era over "
              "era",
              points.back().gap > mid.gap &&
                  mid.gap >= points.front().gap),
        band("final demand-vs-capacity gap (PaLM era)",
             points.back().gap, 5.0, 100.0),
    };
}

// --- Figure 7: algorithmic scaling of slack and edge --------------

void
renderFigure7(const FigureOptions &o, std::ostream &os)
{
    TextTable t({ "Model", "Year", "slack SL*B (norm to BERT)",
                  "edge (H+SL)/TP (norm to BERT)" });
    for (const auto &p : analytic::algorithmicScaling(model::modelZoo()))
        t.addRowOf(p.name, p.year, p.slackNorm, p.edgeNorm);
    show(t, o, os);
}

Claims
figure7Claims()
{
    // Section 3.5: "compute's slack is reduced by ~75% ... compute's
    // edge drops by ~80%".
    const auto points = analytic::algorithmicScaling(model::modelZoo());
    return {
        band("slack drop at PaLM (1 - slackNorm)",
             1.0 - points.back().slackNorm, 0.70, 0.80),
        band("edge drop at PaLM (1 - edgeNorm)",
             1.0 - points.back().edgeNorm, 0.75, 0.85),
    };
}

// --- Figure 9(b): required TP scaling -----------------------------

void
renderFigure9b(const FigureOptions &o, std::ostream &os)
{
    TextTable t({ "Model", "Year", "size ratio p", "capacity scale s",
                  "TP scale p/s", "required TP (base_TP * p/s)" });
    for (const model::ZooEntry &e : model::modelZoo()) {
        if (e.hp.year < model::megatronBertAnchor().year)
            continue;
        const auto r = analytic::requiredTp(
            e.hp.name, e.publishedSizeBillions, e.hp.year);
        t.addRowOf(r.name, e.hp.year, r.modelSizeRatio, r.capacityScale,
                   r.tpScale, r.requiredTpDegree);
    }
    show(t, o, os);
}

Claims
figure9bClaims()
{
    // Section 4.3.2: "TP needs to be scaled by 40-60x, leading to a
    // required TP degree of ~250-550".
    const auto mtnlg = analytic::requiredTp("MT-NLG", 530.0, 2021);
    const auto palm = analytic::requiredTp("PaLM", 540.0, 2022);
    return {
        band("MT-NLG TP scale p/s", mtnlg.tpScale, 40.0, 62.0),
        band("PaLM TP scale p/s", palm.tpScale, 40.0, 62.0),
        band("MT-NLG required TP", mtnlg.requiredTpDegree, 250.0,
             550.0),
        band("PaLM required TP", palm.requiredTpDegree, 250.0, 550.0),
    };
}

// --- Figure 10: serialized comm fraction over the TP sweep --------

void
renderFigure10(const FigureOptions &o, std::ostream &os)
{
    const AmdahlAnalysis analysis(o.system);
    const SweepSpace space = table3();
    std::vector<SerializedConfig> configs;
    for (const ModelLine &line : figure10Lines()) {
        for (std::int64_t tp : space.tpDegrees)
            configs.push_back({ line.hidden, line.seqLen, tp });
    }
    SerializedStudyOptions opts;
    opts.basePlan = o.plan;
    opts.runner = runnerFor(o, "sweep_figure10");
    const auto points = runSerializedStudy(analysis, configs, opts);

    TextTable t({ "H", "SL", "TP", "comm_fraction" });
    for (const AmdahlPoint &p : points) {
        t.addRowOf(static_cast<long>(p.hidden),
                   static_cast<long>(p.seqLen), p.tpDegree,
                   p.commFraction());
    }
    show(t, o, os);
}

Claims
figure10Claims()
{
    // The highlighted points (required TP per model class),
    // projection vs ground truth.
    const AmdahlAnalysis analysis((SystemConfig()));
    const std::vector<ModelLine> lines = figure10Lines();
    std::vector<double> projected;
    for (const ModelLine &line : lines) {
        projected.push_back(
            analysis
                .evaluate(line.hidden, line.seqLen, 1,
                          static_cast<int>(line.requiredTp))
                .commFraction());
    }
    const ModelLine &future = lines.back();
    const double future_direct =
        analysis
            .evaluateDirect(future.hidden, future.seqLen, 1,
                            static_cast<int>(future.requiredTp))
            .commFraction();
    // Section 4.3.4: considerable and growing with model scale,
    // reaching ~50% for the H = 64K future model (ground truth).
    return {
        check("comm fraction grows along the highlighted "
              "model-scaling diagonal",
              projected.back() > projected.front()),
        band("projected fraction at required TPs (low end)",
             projected.front(), 0.20, 0.50),
        band("ground-truth fraction for H=64K future model",
             future_direct, 0.35, 0.55),
    };
}

// --- Figure 11: overlapped comm vs backprop compute ---------------

void
renderFigure11(const FigureOptions &o, std::ostream &os)
{
    const SlackAnalysis analysis(o.system);
    const SweepSpace space = table3();
    struct OverlapConfig
    {
        std::int64_t hidden = 0, seqLen = 0, batch = 0;
    };
    std::vector<OverlapConfig> configs;
    for (std::int64_t h : space.hiddens) {
        for (std::int64_t sl : space.seqLens) {
            for (std::int64_t b : space.batches)
                configs.push_back({ h, sl, b });
        }
    }
    exec::ParallelSweepRunner runner(runnerFor(o, "sweep_figure11"));
    const auto points =
        runner.map(configs, [&](const OverlapConfig &c) {
            return analysis.evaluate(c.hidden, c.seqLen, c.batch);
        });

    TextTable t({ "H", "SL_x_B", "overlap_vs_compute" });
    for (const auto &p : points) {
        t.addRowOf(static_cast<long>(p.hidden),
                   static_cast<long>(p.slTimesB()),
                   p.overlappedCommVsCompute());
    }
    show(t, o, os);
}

Claims
figure11Claims()
{
    const SlackAnalysis analysis((SystemConfig()));
    const SweepSpace space = table3();
    double lo = 1e18, hi = 0.0;
    for (std::int64_t h : space.hiddens) {
        for (std::int64_t sl : space.seqLens) {
            for (std::int64_t b : space.batches) {
                const double r = analysis.evaluate(h, sl, b)
                                     .overlappedCommVsCompute();
                lo = std::min(lo, r);
                hi = std::max(hi, r);
            }
        }
    }
    // Section 4.3.5: "17% to 140% for the range of H, SL, and B
    // values" also holds over a coarser H x SL*B grid at B = 1.
    double grid_lo = 1e18, grid_hi = 0.0;
    for (std::int64_t h : { 1024, 4096, 16384, 65536 }) {
        for (std::int64_t slb : { 1024, 4096, 8192, 32768 }) {
            const double r =
                analysis.evaluate(h, slb, 1).overlappedCommVsCompute();
            grid_lo = std::min(grid_lo, r);
            grid_hi = std::max(grid_hi, r);
        }
    }
    const double at4k_small =
        analysis.evaluate(1024, 4096, 1).overlappedCommVsCompute();
    const double at4k_large =
        analysis.evaluate(65536, 4096, 1).overlappedCommVsCompute();
    return {
        band("overlap range over the Table 3 sweep, low end (paper: "
             "17%)",
             lo, 0.0, 0.17),
        band("overlap range over the Table 3 sweep, high end (paper: "
             "140%)",
             hi, 0.60, 3.0),
        band("overlap range over the H x SL*B grid, low end", grid_lo,
             0.0, 0.17),
        band("overlap range over the H x SL*B grid, high end", grid_hi,
             0.60, 3.0),
        band("overlap at SL*B=4K, small H (paper: up to ~55%)",
             at4k_small, 0.20, 0.60),
        band("overlap at SL*B=4K, large H (paper: ~20%)", at4k_large,
             0.15, 0.30),
        check("smaller H leaves less slack (network under-utilization)",
              at4k_small > 1.5 * at4k_large),
    };
}

// --- Figure 12: hardware evolution vs serialized comm -------------

void
renderFigure12(const FigureOptions &o, std::ostream &os)
{
    // Hardware evolution: the Figure 10 model lines at each compute
    // scaling step, optionally under a full 3D plan.
    std::vector<EvolutionConfig> configs = figure12Configs();
    SerializedStudyOptions opts;
    opts.basePlan = o.plan;
    opts.runner = runnerFor(o, "sweep_figure12");
    // An explicit tp= in --parallel pins the TP degree for every
    // line; otherwise each line keeps its required TP.
    if (opts.basePlan.tpDegree > 1) {
        for (EvolutionConfig &c : configs)
            c.tpDegree = opts.basePlan.tpDegree;
    }
    const auto points = runHardwareEvolutionStudy(o.system, configs, opts);

    TextTable t({ "model", "flop_scale", "H", "SL", "TP", "plan",
                  "comm_fraction" });
    for (const EvolutionPoint &p : points) {
        t.addRowOf(p.config.tag, p.config.flopScale,
                   static_cast<long>(p.config.hidden),
                   static_cast<long>(p.config.seqLen),
                   p.point.tpDegree, p.point.plan.summary(),
                   p.point.commFraction());
    }
    show(t, o, os);
}

Claims
figure12Claims()
{
    // The model lines at their required TP on 2x and 4x hardware.
    double lo[2] = { 1.0, 1.0 }, hi[2] = { 0.0, 0.0 };
    const double scales[2] = { 2.0, 4.0 };
    for (int g = 0; g < 2; ++g) {
        const AmdahlAnalysis analysis(
            scaledFlops(SystemConfig(), scales[g]));
        for (const ModelLine &line : figure10Lines()) {
            const double f =
                analysis
                    .evaluate(line.hidden, line.seqLen, 1,
                              static_cast<int>(line.requiredTp))
                    .commFraction();
            lo[g] = std::min(lo[g], f);
            hi[g] = std::max(hi[g], f);
        }
    }
    // Section 4.3.6: "the range increasing from 20-50% to 30-65% and
    // 40-75%, respectively".
    return {
        band("2x flop-vs-bw comm-fraction range low", lo[0], 0.30,
             0.65),
        band("2x flop-vs-bw comm-fraction range high", hi[0], 0.30,
             0.65),
        band("4x flop-vs-bw comm-fraction range low", lo[1], 0.40,
             0.75),
        band("4x flop-vs-bw comm-fraction range high", hi[1], 0.40,
             0.75),
    };
}

// --- Figure 12 on the DES: serialized, exposed and hidden comm ----

void
renderFigure12Des(const FigureOptions &o, std::ostream &os)
{
    // The same grid as ground truth: each line at its required TP,
    // one two-stream case-study iteration per cell.
    const auto points = runSimulatedEvolutionStudy(
        o.system, figure12Configs(), runnerFor(o, "sweep_figure12_des"));

    TextTable t({ "model", "flop_scale", "H", "SL", "TP", "iteration",
                  "compute", "serialized_comm", "exposed_comm",
                  "hidden_comm" });
    for (const SimulatedEvolutionPoint &p : points) {
        t.addRowOf(p.config.tag, p.config.flopScale,
                   static_cast<long>(p.config.hidden),
                   static_cast<long>(p.config.seqLen),
                   static_cast<long>(p.config.tpDegree),
                   formatSeconds(p.result.makespan),
                   formatPercent(p.result.computeFraction()),
                   formatPercent(p.result.serializedCommFraction()),
                   formatPercent(p.result.exposedCommFraction()),
                   formatPercent(p.result.hiddenCommFraction()));
    }
    show(t, o, os);
}

Claims
figure12DesClaims()
{
    // figure12Configs() lists every model line at 1x, then at 2x,
    // then at 4x.
    const std::vector<SimulatedEvolutionPoint> points =
        runSimulatedEvolutionStudy(SystemConfig(), figure12Configs());
    const std::size_t lines = figure10Lines().size();
    double lo[3] = { 1.0, 1.0, 1.0 }, hi[3] = { 0.0, 0.0, 0.0 };
    bool rises = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::size_t g = i / lines;
        const double f = points[i].result.serializedCommFraction();
        lo[g] = std::min(lo[g], f);
        hi[g] = std::max(hi[g], f);
        if (g > 0)
            rises = rises &&
                    f > points[i - lines].result.serializedCommFraction();
    }
    // Section 4.3.6: "the range increasing from 20-50% to 30-65% and
    // 40-75%, respectively".
    return {
        band("1x DES serialized-comm fraction low", lo[0], 0.20, 0.50),
        band("1x DES serialized-comm fraction high", hi[0], 0.20, 0.50),
        band("2x DES serialized-comm fraction low", lo[1], 0.30, 0.65),
        band("2x DES serialized-comm fraction high", hi[1], 0.30, 0.65),
        band("4x DES serialized-comm fraction low", lo[2], 0.40, 0.75),
        band("4x DES serialized-comm fraction high", hi[2], 0.40, 0.75),
        check("the DES serialized-comm fraction rises with flop scale "
              "on every model line",
              rises),
    };
}

// --- Figure 13: hardware evolution vs overlapped comm -------------

struct Figure13Row
{
    std::int64_t hidden = 0;
    std::int64_t slb = 0;
    /** Overlapped comm vs compute at 1x, 2x and 4x flop scaling. */
    std::vector<double> overlap;
};

/** The (H, SL*B) x (hardware generation) grid, in input order at
 *  any --jobs. */
std::vector<Figure13Row>
figure13Rows(const SystemConfig &base,
             const exec::RunnerOptions &runner)
{
    std::vector<SlackAnalysis> analyses;
    for (double fs : { 1.0, 2.0, 4.0 })
        analyses.emplace_back(scaledFlops(base, fs));
    std::vector<Figure13Row> rows;
    for (std::int64_t h : { 1024, 4096, 16384, 65536 }) {
        for (std::int64_t slb : { 1024, 2048, 4096, 8192 })
            rows.push_back({ h, slb, {} });
    }
    return exec::ParallelSweepRunner(runner).map(
        rows, [&](Figure13Row row) {
            for (const SlackAnalysis &a : analyses) {
                row.overlap.push_back(a.evaluate(row.hidden, row.slb, 1)
                                          .overlappedCommVsCompute());
            }
            return row;
        });
}

void
renderFigure13(const FigureOptions &o, std::ostream &os)
{
    TextTable t({ "H", "SL*B", "1x", "2x", "4x", "exposed at 4x?" });
    for (const Figure13Row &r :
         figure13Rows(o.system, runnerFor(o, "sweep_figure13"))) {
        t.addRowOf(static_cast<long>(r.hidden),
                   static_cast<long>(r.slb), formatPercent(r.overlap[0]),
                   formatPercent(r.overlap[1]),
                   formatPercent(r.overlap[2]),
                   r.overlap[2] >= 1.0 ? "yes" : "no");
    }
    show(t, o, os);
}

Claims
figure13Claims()
{
    const auto rows = figure13Rows(SystemConfig(), {});
    int exposed = 0;
    double r2 = 0.0, r4 = 0.0;
    for (const Figure13Row &r : rows) {
        exposed += r.overlap[2] >= 1.0 ? 1 : 0;
        if (r.hidden == 16384 && r.slb == 4096) {
            r2 = r.overlap[1];
            r4 = r.overlap[2];
        }
    }
    // Section 4.3.6: overlapped comm reaches 50-100% (2x) and
    // 80-210% (4x) in the common region and is exposed (>= 100%) in
    // many cases.
    return {
        band("2x overlap at common SL*B=4K", r2, 0.30, 1.00),
        band("4x overlap at common SL*B=4K", r4, 0.60, 2.10),
        check("communication exposed (>=100%) in several 4x "
              "configurations",
              exposed >= static_cast<int>(rows.size()) / 4),
    };
}

// --- Figure 14: the end-to-end case study -------------------------

void
renderFigure14(const FigureOptions &o, std::ostream &os)
{
    // The case study's scenario bars run on the event engine.
    CaseStudy study;
    CaseStudyConfig base;
    base.system = o.system;
    CaseStudyConfig internode = base;
    internode.interNodeDp = true;

    const std::pair<const char *, CaseStudyConfig> scenarios[] = {
        { "tp+dp_intra", base }, { "tp+dp_inter", internode }
    };
    TextTable t({ "scenario", "iteration", "compute",
                  "serialized_comm", "exposed_comm", "hidden_comm" });
    for (const auto &[name, cfg] : scenarios) {
        const CaseStudyResult r = study.run(cfg);
        t.addRowOf(name, formatSeconds(r.makespan),
                   formatPercent(r.computeFraction()),
                   formatPercent(r.serializedCommFraction()),
                   formatPercent(r.exposedCommFraction()),
                   formatPercent(r.hiddenCommFraction()));
    }
    show(t, o, os);
}

Claims
figure14Claims()
{
    // H=64K, B=1, SL=4K, TP=128 at 4x flop-vs-bw: TP + DP on
    // intra-node-class links, then DP over ~8x slower inter-node
    // links with interference.
    CaseStudy study;
    CaseStudyConfig cfg;
    cfg.system.flopScale = 4.0;
    const CaseStudyResult both = study.run(cfg);
    cfg.interNodeDp = true;
    const CaseStudyResult slow = study.run(cfg);
    // Section 4.3.7: ~half the time is serialized communication, the
    // DP communication is completely hidden on fast links but becomes
    // exposed over inter-node links.
    return {
        band("serialized comm fraction (paper: 47%)",
             both.serializedCommFraction(), 0.40, 0.65),
        band("hidden DP comm fraction (paper: 9%)",
             both.hiddenCommFraction(), 0.02, 0.15),
        check("DP comm fully hidden on fast links",
              both.dpExposedTime < 0.15 * both.makespan),
        check("DP comm exposed over inter-node links",
              slow.dpExposedTime > 4.0 * both.dpExposedTime),
        band("exposed DP comm share over inter-node links",
             slow.dpExposedTime / slow.makespan, 0.25, 1.0),
    };
}

// --- Figure 15: operator-model accuracy ---------------------------

struct Figure15Series
{
    opmodel::AccuracySeries gemmSl, gemmH, lnSl, lnH, allReduce;
};

Figure15Series
figure15Series(const SystemConfig &sys)
{
    model::ParallelPlan par;
    const model::LayerGraphBuilder baseline(model::bertLarge(), par);
    const opmodel::AccuracyEvaluator eval(sys.profiler(), baseline);
    return {
        eval.operatorVsSeqLen("fc1_fwd", { 1024, 2048, 4096, 8192 }),
        eval.operatorVsHidden("fc1_fwd", { 2048, 4096, 8192, 16384 }),
        eval.operatorVsSeqLen("ln1_fwd", { 1024, 2048, 4096, 8192 }),
        eval.operatorVsHidden("ln1_fwd", { 2048, 4096, 8192, 16384 }),
        eval.allReduceVsBytes({ 8e6, 32e6, 128e6, 512e6, 1e9 }),
    };
}

void
renderFigure15(const FigureOptions &o, std::ostream &os)
{
    const Figure15Series s = figure15Series(o.system);
    const std::pair<const opmodel::AccuracySeries *, const char *>
        series[] = { { &s.gemmSl, "SL" },
                     { &s.gemmH, "H" },
                     { &s.lnSl, "SL" },
                     { &s.lnH, "H" },
                     { &s.allReduce, "bytes" } };
    for (const auto &[ser, sweep_name] : series) {
        os << "\n-- " << ser->name << " --\n";
        TextTable t({ sweep_name, "projected", "measured",
                      "rel. error" });
        for (const auto &p : ser->points) {
            t.addRowOf(p.sweepValue, formatSeconds(p.projected),
                       formatSeconds(p.measured),
                       formatPercent(p.relError));
        }
        show(t, o, os);
        os << "geomean error " << formatPercent(ser->geomeanError)
           << ", max error " << formatPercent(ser->maxError) << "\n";
    }
}

Claims
figure15Claims()
{
    const Figure15Series s = figure15Series(SystemConfig());
    // Section 4.3.8 headline numbers: GEMM ~15%, LayerNorm ~7%,
    // all-reduce ~11%; "< 15% error" overall.
    return {
        band("GEMM-vs-H geomean error (paper ~15%)",
             s.gemmH.geomeanError, 0.0, 0.16),
        band("GEMM-vs-SL geomean error (linear fit)",
             s.gemmSl.geomeanError, 0.0, 0.10),
        band("LayerNorm geomean error (paper ~7%)",
             std::max(s.lnSl.geomeanError, s.lnH.geomeanError), 0.0,
             0.16),
        band("all-reduce geomean error (paper ~11%)",
             s.allReduce.geomeanError, 0.0, 0.15),
    };
}

// --- Table 2: the model zoo ---------------------------------------

void
renderTable2(const FigureOptions &o, std::ostream &os)
{
    TextTable t({ "Model", "Year", "#Layers", "H", "#Heads", "Size(B)",
                  "Type", "SL", "FC dim", "computed params (B)" });
    for (const model::ZooEntry &e : model::modelZoo()) {
        t.addRowOf(e.hp.name, e.hp.year, e.hp.numLayers,
                   static_cast<long>(e.hp.hidden), e.hp.numHeads,
                   e.publishedSizeBillions,
                   model::layerTypeName(e.hp.type),
                   static_cast<long>(e.hp.sequenceLength),
                   static_cast<long>(e.hp.fcDim),
                   e.hp.totalParams() / 1e9);
    }
    show(t, o, os);
}

Claims
table2Claims()
{
    const auto &zoo = model::modelZoo();
    return {
        check("models span 2018 (BERT) to 2022 (PaLM)",
              zoo.front().hp.year == 2018 &&
                  zoo.back().hp.year == 2022),
        band("PaLM / BERT published size ratio",
             zoo.back().publishedSizeBillions /
                 zoo.front().publishedSizeBillions,
             1000.0, 2000.0),
    };
}

// --- Section 4.3.8: profiling speedups ----------------------------

void
renderProfilingCost(const FigureOptions &o, std::ostream &os)
{
    // How much machine time the empirical strategy saves over
    // exhaustively profiling every Table 3 configuration, and over
    // running full iterations for the overlapped analysis.
    const CostStudyResult r = profilingCostStudy(o.system);

    TextTable t({ "quantity", "value" });
    t.addRowOf("configurations avoided", r.configsAvoided);
    t.addRowOf("strategy (executed) machine time",
               formatSeconds(r.ledger.executedTime()));
    t.addRowOf("exhaustive (executed + avoided) machine time",
               formatSeconds(r.ledger.exhaustiveTime()));
    t.addRowOf("projection speedup",
               std::to_string(static_cast<long>(r.projectionSpeedup)) +
                   "x");
    t.addRowOf("ROI forward-pass-skip speedup",
               formatPercent(r.roiSpeedup - 1.0) + " faster (" +
                   std::to_string(r.roiSpeedup) + "x)");
    show(t, o, os);

    os << "\nmost expensive avoided configurations:\n";
    TextTable top({ "configuration", "iteration time" });
    std::vector<profiling::LedgerEntry> avoided;
    for (const auto &e : r.ledger.entries()) {
        if (!e.executed)
            avoided.push_back(e);
    }
    std::sort(avoided.begin(), avoided.end(),
              [](const auto &a, const auto &b) { return a.time > b.time; });
    for (std::size_t i = 0; i < 5 && i < avoided.size(); ++i)
        top.addRowOf(avoided[i].what, formatSeconds(avoided[i].time));
    show(top, o, os);
}

Claims
profilingCostClaims()
{
    const CostStudyResult r = profilingCostStudy(SystemConfig());
    // Paper: "over three orders of magnitude (2100x)" and "1.5x".
    return {
        check("projection speedup exceeds three orders of magnitude",
              r.projectionSpeedup > 1000.0),
        band("ROI speedup (paper: 1.5x)", r.roiSpeedup, 1.4, 1.6),
        check("196 configurations avoided (~198 in paper)",
              r.configsAvoided == 196),
    };
}

// --- Section 4.3.6 / 2.4: compute vs network scaling --------------

/** Aggregate link bandwidth of a device. */
double
linkBandwidth(const hw::DeviceSpec &d)
{
    return d.numLinks * d.link.bandwidth;
}

void
renderHwTrends(const FigureOptions &o, std::ostream &os)
{
    TextTable t({ "device", "year", "FP16 peak", "HBM BW", "capacity",
                  "total link BW" });
    for (const hw::DeviceSpec &d : hw::allDevices()) {
        t.addRowOf(d.name, d.year, formatRate(d.peakFlopsFp16, "FLOP"),
                   formatRate(d.memBandwidth, "B"),
                   formatBytes(d.memCapacity),
                   formatRate(linkBandwidth(d), "B"));
    }
    show(t, o, os);

    os << "\n";
    TextTable r({ "generation pair", "FLOPS scale", "net BW scale",
                  "flop-vs-bw" });
    r.addRowOf("V100 -> A100 (2018-2020)",
               hw::a100().peakFlopsFp16 / hw::v100().peakFlopsFp16,
               linkBandwidth(hw::a100()) / linkBandwidth(hw::v100()),
               hw::flopVsBwScaling(hw::v100(), hw::a100()));
    r.addRowOf("MI50 -> MI100 (2018-2020)",
               hw::mi100().peakFlopsFp16 / hw::mi50().peakFlopsFp16,
               linkBandwidth(hw::mi100()) / linkBandwidth(hw::mi50()),
               hw::flopVsBwScaling(hw::mi50(), hw::mi100()));
    show(r, o, os);
}

Claims
hwTrendsClaims()
{
    // Paper: compute scaled relatively more, "by ~2-4x": FLOPS by
    // ~5x and ~7x while network bandwidth scaled only ~2x and ~1.7x
    // (2018-2020).
    return {
        band("NVIDIA flop-vs-bw ratio",
             hw::flopVsBwScaling(hw::v100(), hw::a100()), 2.0, 3.0),
        band("AMD flop-vs-bw ratio",
             hw::flopVsBwScaling(hw::mi50(), hw::mi100()), 3.0, 4.5),
        band("V100 -> A100 FLOPS scale (paper: ~5x)",
             hw::a100().peakFlopsFp16 / hw::v100().peakFlopsFp16, 4.7,
             5.3),
        band("MI50 -> MI100 FLOPS scale (paper: ~7x)",
             hw::mi100().peakFlopsFp16 / hw::mi50().peakFlopsFp16, 6.7,
             7.3),
        band("V100 -> A100 network BW scale (paper: ~2x)",
             linkBandwidth(hw::a100()) / linkBandwidth(hw::v100()), 1.8,
             2.2),
        band("MI50 -> MI100 network BW scale (paper: ~1.7x)",
             linkBandwidth(hw::mi100()) / linkBandwidth(hw::mi50()),
             1.5, 1.9),
    };
}

// --- Section 6.1.1: mixture of experts ----------------------------

struct MoeRow
{
    std::string setup;
    profiling::Profile profile;

    double share() const
    {
        return profile.serializedCommTime() / profile.totalTime();
    }
};

/** A dense TP=4 layer, then its MoE variants at EP 2..16. */
std::vector<MoeRow>
moeRows(const SystemConfig &sys)
{
    const auto profiler = sys.profiler();
    const model::Hyperparams dense_hp =
        model::bertLarge().withHidden(4096).withCompatibleHeads(4);
    model::ParallelPlan dense_par;
    dense_par.tpDegree = 4;
    std::vector<MoeRow> rows;
    rows.push_back(
        { "dense (TP=4)",
          profiler.profileLayer(
              model::LayerGraphBuilder(dense_hp, dense_par), 0) });
    for (int ep : { 2, 4, 8, 16 }) {
        model::ParallelPlan par;
        par.tpDegree = 4;
        par.epDegree = ep;
        const model::LayerGraphBuilder moe(dense_hp.withMoe(ep * 2),
                                           par);
        rows.push_back({ "MoE " + std::to_string(ep * 2) +
                             " experts (EP=" + std::to_string(ep) +
                             ", TP=4)",
                         profiler.profileLayer(moe, 0) });
    }
    return rows;
}

void
renderMoe(const FigureOptions &o, std::ostream &os)
{
    TextTable t({ "setup", "layer compute", "serialized comm",
                  "comm share" });
    for (const MoeRow &r : moeRows(o.system)) {
        t.addRowOf(r.setup, formatSeconds(r.profile.computeTime()),
                   formatSeconds(r.profile.serializedCommTime()),
                   formatPercent(r.share()));
    }
    show(t, o, os);
}

Claims
moeClaims()
{
    const auto rows = moeRows(SystemConfig());
    return {
        check("expert parallelism raises the serialized-comm share "
              "over the dense model",
              rows.back().share() > rows.front().share()),
    };
}

// --- Section 6.1.2: pipeline bubbles ------------------------------

struct PipelineRow
{
    int stages = 0;
    int microBatches = 0;
    analytic::PipelineCost cost;
    Seconds iteration = 0.0;
    Seconds ideal = 0.0;
};

/** GPT-3 (B = 1, TP = 8) split into 2/4/8 stages at 1..64
 *  micro-batches; stage time measured on the substrate. */
std::vector<PipelineRow>
pipelineRows(const SystemConfig &sys)
{
    const model::Hyperparams hp =
        model::zooModel("GPT-3").hp.withBatchSize(1);
    model::ParallelPlan par;
    par.tpDegree = 8;
    const model::LayerGraphBuilder graph(hp.withCompatibleHeads(8),
                                         par);
    const auto layer_profile = sys.profiler().profileLayer(graph, 0);

    std::vector<PipelineRow> rows;
    for (int stages : { 2, 4, 8 }) {
        const Seconds stage_time =
            layer_profile.totalTime() * hp.numLayers / stages;
        for (int micro : { 1, 4, 16, 64 }) {
            analytic::PipelineConfig cfg;
            cfg.stages = stages;
            cfg.microBatches = micro;
            PipelineRow row{ stages, micro,
                             analytic::pipelineCost(hp, cfg,
                                                    sys.device.link),
                             0.0, stage_time };
            row.iteration = analytic::pipelineIterationTime(
                stage_time / micro, cfg, row.cost.p2pTimePerTransfer);
            rows.push_back(row);
        }
    }
    return rows;
}

void
renderPipeline(const FigureOptions &o, std::ostream &os)
{
    TextTable t({ "stages", "micro-batches", "bubble fraction",
                  "p2p / iteration", "iteration time",
                  "vs ideal (no bubble)" });
    for (const PipelineRow &r : pipelineRows(o.system)) {
        t.addRowOf(r.stages, r.microBatches,
                   formatPercent(r.cost.bubbleFraction),
                   formatSeconds(r.cost.totalP2pTime),
                   formatSeconds(r.iteration), r.iteration / r.ideal);
    }
    show(t, o, os);
}

Claims
pipelineClaims()
{
    double worst = 0.0, best = 1.0;
    for (const PipelineRow &r : pipelineRows(SystemConfig())) {
        worst = std::max(worst, r.cost.bubbleFraction);
        if (r.stages == 8)
            best = std::min(best, r.cost.bubbleFraction);
    }
    return {
        check("single-micro-batch pipelines waste most of the "
              "machine in bubbles",
              worst >= 0.5),
        check("64 micro-batches amortize an 8-stage bubble below 10%",
              best < 0.10),
    };
}

// --- Section 6.2: number formats ----------------------------------

struct PrecisionCase
{
    std::int64_t hidden = 0, seqLen = 0;
    int tp = 0;
    std::vector<PrecisionPoint> points;
};

std::vector<PrecisionCase>
precisionCases(const SystemConfig &sys)
{
    std::vector<PrecisionCase> cases = { { 4096, 1024, 16, {} },
                                         { 16384, 2048, 64, {} } };
    for (PrecisionCase &c : cases)
        c.points = precisionStudy(sys, c.hidden, c.seqLen, 1, c.tp);
    return cases;
}

void
renderPrecision(const FigureOptions &o, std::ostream &os)
{
    TextTable t({ "config", "precision", "compute", "serialized comm",
                  "comm fraction" });
    for (const PrecisionCase &c : precisionCases(o.system)) {
        for (const PrecisionPoint &p : c.points) {
            t.addRowOf("H=" + std::to_string(c.hidden) +
                           " TP=" + std::to_string(c.tp),
                       hw::precisionName(p.precision),
                       formatSeconds(p.computeTime),
                       formatSeconds(p.serializedCommTime),
                       formatPercent(p.commFraction()));
        }
    }
    show(t, o, os);
}

Claims
precisionClaims()
{
    bool monotone = true;
    for (const PrecisionCase &c : precisionCases(SystemConfig())) {
        double fp32 = 0.0, fp8 = 0.0;
        for (const PrecisionPoint &p : c.points) {
            if (p.precision == hw::Precision::FP32)
                fp32 = p.commFraction();
            if (p.precision == hw::Precision::FP8)
                fp8 = p.commFraction();
        }
        monotone = monotone && fp8 > fp32;
    }
    return {
        check("comm fraction grows as precision drops (FP32 -> FP8) "
              "in every configuration",
              monotone),
    };
}

// --- Section 5: accelerating communication ------------------------

struct AccelerationRow
{
    const char *technique;
    CaseStudyResult result;
};

/**
 * The Figure 14 case study at 4x with DP comm co-located with
 * compute, then each technique the paper surveys: offloading
 * (no interference), processing-in-network (2x effective AR
 * bandwidth), fine-grained overlap, all three, and scaling the
 * network with compute.
 */
std::vector<AccelerationRow>
accelerationRows(const SystemConfig &sys)
{
    CaseStudy study;
    CaseStudyConfig base;
    base.system = scaledFlops(sys, 4.0);
    // A contended baseline: DP comm co-located with compute.
    base.commInterferenceSlowdown = 1.3;

    CaseStudyConfig offload = base;
    offload.offloadCommunication = true;
    CaseStudyConfig pin = base;
    pin.system.inNetworkReduction = true;
    CaseStudyConfig overlap = base;
    overlap.fineGrainedOverlapFraction = 0.6;
    CaseStudyConfig all = overlap;
    all.offloadCommunication = true;
    all.system.inNetworkReduction = true;
    CaseStudyConfig net = base;
    net.system.bwScale = base.system.bwScale * 4.0;

    const std::pair<const char *, const CaseStudyConfig *> configs[] = {
        { "baseline (ring, co-located)", &base },
        { "T1: offload to comm co-processor", &offload },
        { "T2: processing-in-network", &pin },
        { "T3: fine-grained overlap (60%)", &overlap },
        { "T1 + T2 + T3", &all },
        { "network scaled with compute (4x)", &net },
    };
    std::vector<AccelerationRow> rows;
    for (const auto &[name, cfg] : configs)
        rows.push_back({ name, study.run(*cfg) });
    return rows;
}

void
renderAcceleration(const FigureOptions &o, std::ostream &os)
{
    const auto rows = accelerationRows(o.system);
    const Seconds baseline = rows.front().result.makespan;
    TextTable t({ "technique", "iteration", "serialized comm",
                  "exposed comm", "speedup vs baseline" });
    for (const AccelerationRow &r : rows) {
        t.addRowOf(r.technique, formatSeconds(r.result.makespan),
                   formatPercent(r.result.serializedCommFraction()),
                   formatPercent(r.result.exposedCommFraction()),
                   baseline / r.result.makespan);
    }
    show(t, o, os);
}

Claims
accelerationClaims()
{
    const auto rows = accelerationRows(SystemConfig());
    const CaseStudyResult &baseline = rows[0].result;
    const CaseStudyResult &offload = rows[1].result;
    const CaseStudyResult &pin = rows[2].result;
    const CaseStudyResult &overlap = rows[3].result;
    const CaseStudyResult &all = rows[4].result;
    const CaseStudyResult &net = rows[5].result;
    return {
        check("every technique improves on the baseline",
              offload.makespan <= baseline.makespan &&
                  pin.makespan < baseline.makespan &&
                  overlap.makespan < baseline.makespan),
        check("techniques compose", all.makespan < pin.makespan &&
                                        all.makespan < overlap.makespan),
        band("PIN alone buys close to the 2x bandwidth effect on "
             "serialized comm",
             baseline.serializedCommTime / pin.serializedCommTime, 1.6,
             2.2),
        check("scaling the network with compute shrinks both the "
              "serialized share and the iteration the most",
              net.makespan <= pin.makespan &&
                  net.serializedCommFraction() <
                      0.7 * baseline.serializedCommFraction()),
    };
}

// --- Section 4.3.8: operator-model calibration strategies ---------

struct CalibrationErrors
{
    double single = 0.0, bigSingle = 0.0, fitted = 0.0;
};

/** Geomean GEMM projection error of `m` on the withheld H sweep. */
double
gemmError(const opmodel::OperatorScalingModel &m,
          const profiling::IterationProfiler &profiler)
{
    ErrorAccumulator err;
    model::ParallelPlan par;
    for (std::int64_t h : { 16384, 32768, 65536 }) {
        const model::LayerGraphBuilder target(
            model::bertLarge().withHidden(h), par);
        for (const auto &op : target.forwardLayerOps(0)) {
            if (op.isComm() || op.kernel.kind != hw::KernelKind::Gemm)
                continue;
            err.add(m.projectOp(op),
                    profiler.profileOp(op, par).duration);
        }
    }
    return err.geomeanError();
}

/**
 * The paper notes its projection error "may improve by using a
 * larger baseline model": (a) the paper's single-point scaling from
 * BERT, (b) the same from a 4x larger baseline, (c) a least-squares
 * fit over a small H sweep.
 */
CalibrationErrors
calibrationErrors(const SystemConfig &sys)
{
    using opmodel::OperatorScalingModel;
    const auto profiler = sys.profiler();
    model::ParallelPlan par;
    const model::LayerGraphBuilder bert(model::bertLarge(), par);
    const model::LayerGraphBuilder big(
        model::bertLarge().withHidden(4096), par);
    return {
        gemmError(OperatorScalingModel::calibrate(profiler, bert),
                  profiler),
        gemmError(OperatorScalingModel::calibrate(profiler, big),
                  profiler),
        gemmError(OperatorScalingModel::calibrateFitted(
                      profiler, bert,
                      { model::bertLarge().withHidden(2048),
                        model::bertLarge().withHidden(4096),
                        model::bertLarge().withHidden(8192) }),
                  profiler),
    };
}

void
renderCalibration(const FigureOptions &o, std::ostream &os)
{
    const CalibrationErrors e = calibrationErrors(o.system);
    TextTable t({ "calibration", "profiling points",
                  "geomean GEMM error on withheld H" });
    t.addRowOf("single point @ BERT (paper)", 1,
               formatPercent(e.single));
    t.addRowOf("single point @ 4x baseline", 1,
               formatPercent(e.bigSingle));
    t.addRowOf("least-squares over H sweep", 4,
               formatPercent(e.fitted));
    show(t, o, os);
}

Claims
calibrationClaims()
{
    const CalibrationErrors e = calibrationErrors(SystemConfig());
    return {
        check("a larger baseline reduces projection error (paper's "
              "conjecture)",
              e.bigSingle < e.single),
        check("multi-point fitting reduces projection error",
              e.fitted < e.single),
    };
}

// --- DP gradient-bucket granularity -------------------------------

struct BucketRow
{
    /** "per sub-layer", "16 MiB", ... */
    std::string granularity;
    CaseStudyResult result;
};

/** H=8K, SL=2K, TP=16, DP=8 with DP buckets of `bucket_bytes` (0:
 *  one all-reduce per sub-layer). */
CaseStudyResult
runBucketing(const SystemConfig &sys, Bytes bucket_bytes)
{
    CaseStudyConfig cfg;
    cfg.system = sys;
    cfg.hidden = 8192;
    cfg.seqLen = 2048;
    cfg.tpDegree = 16;
    cfg.dpDegree = 8;
    cfg.dpBucketBytes = bucket_bytes;
    return CaseStudy().run(cfg);
}

/** Per-sub-layer all-reduces, then 16 MiB to 4 GiB buckets. */
std::vector<BucketRow>
bucketRows(const SystemConfig &sys)
{
    std::vector<BucketRow> rows;
    rows.push_back({ "per sub-layer", runBucketing(sys, 0.0) });
    for (int mib : { 16, 64, 256, 4096 }) {
        rows.push_back({ std::to_string(mib) + " MiB",
                         runBucketing(sys, mib * 1024.0 * 1024.0) });
    }
    return rows;
}

/** The fastest row (the first on a tie). */
const BucketRow &
fastestBucketing(const std::vector<BucketRow> &rows)
{
    return *std::min_element(
        rows.begin(), rows.end(),
        [](const BucketRow &a, const BucketRow &b) {
            return a.result.makespan < b.result.makespan;
        });
}

void
renderBucketing(const FigureOptions &o, std::ostream &os)
{
    const auto rows = bucketRows(o.system);
    TextTable t({ "bucketing", "iteration", "DP comm",
                  "exposed DP comm", "hidden comm" });
    for (const BucketRow &r : rows) {
        t.addRowOf(&r == &rows.front() ? r.granularity + " (paper)"
                                       : r.granularity + " buckets",
                   formatSeconds(r.result.makespan),
                   formatSeconds(r.result.dpCommTime),
                   formatSeconds(r.result.dpExposedTime),
                   formatSeconds(r.result.overlappedCommTime));
    }
    show(t, o, os);
    os << "best granularity: " << fastestBucketing(rows).granularity
       << "\n";
}

Claims
bucketingClaims()
{
    const auto rows = bucketRows(SystemConfig());
    const CaseStudyResult &per_sublayer = rows.front().result;
    const CaseStudyResult &best = fastestBucketing(rows).result;
    // One giant bucket cannot overlap: all comm waits for backward.
    const CaseStudyResult giant = runBucketing(SystemConfig(), 1e15);
    return {
        check("a single end-of-backward bucket exposes more DP comm "
              "than per-sub-layer all-reduces",
              giant.dpExposedTime > per_sublayer.dpExposedTime),
        check("moderate buckets are never slower than the extremes",
              best.makespan <= per_sublayer.makespan * 1.001 &&
                  best.makespan <= giant.makespan * 1.001),
    };
}

// --- Scaling study: best layout vs device count -------------------

struct ScalingRow
{
    int devices = 0;
    LayoutCandidate best;
};

std::vector<ScalingRow>
scalingRows(const SystemConfig &sys)
{
    // Section 2.4's premise: communication "may cause compute
    // resources to be idle ... and limit throughput scaling".
    const LayoutPlanner planner(sys, model::zooModel("GPT-3").hp);
    std::vector<ScalingRow> rows;
    for (int devices : { 64, 128, 256, 512, 1024, 2048 }) {
        PlannerOptions opts;
        opts.maxDevices = devices;
        opts.maxTpDegree = 64;
        opts.maxPipelineStages = 8;
        rows.push_back({ devices, planner.best(opts) });
    }
    return rows;
}

double
perDeviceThroughput(const LayoutCandidate &c)
{
    return c.tokensPerSecond / c.totalDevices();
}

void
renderScaling(const FigureOptions &o, std::ostream &os)
{
    const auto rows = scalingRows(o.system);
    TextTable t({ "devices", "best layout (TP/PP/DP)", "iteration",
                  "comm fraction", "tokens/s", "parallel efficiency" });
    const double base = perDeviceThroughput(rows.front().best);
    for (const ScalingRow &r : rows) {
        const LayoutCandidate &b = r.best;
        t.addRowOf(r.devices,
                   std::to_string(b.tpDegree) + "/" +
                       std::to_string(b.pipelineStages) + "/" +
                       std::to_string(b.dpDegree),
                   formatSeconds(b.iterationTime),
                   formatPercent(b.commFraction()), b.tokensPerSecond,
                   formatPercent(perDeviceThroughput(b) / base));
    }
    show(t, o, os);
}

Claims
scalingClaims()
{
    const auto rows = scalingRows(SystemConfig());
    const double efficiency = perDeviceThroughput(rows.back().best) /
                              perDeviceThroughput(rows.front().best);
    return {
        check("parallel efficiency stays sub-linear but useful (comm "
              "limits perfect scaling)",
              efficiency <= 1.001 && efficiency > 0.3),
    };
}

// --- Validation: projection vs ground truth over Table 3 ----------

struct ProjectionErrors
{
    std::vector<double> compute;
    std::vector<double> fractionGap;
};

/** Every Table 3 serialized configuration, projected and simulated. */
ProjectionErrors
projectionErrors(const SystemConfig &sys)
{
    const AmdahlAnalysis analysis(sys);
    ProjectionErrors e;
    for (const SerializedConfig &c : serializedConfigs(table3())) {
        const auto proj =
            analysis.evaluate(c.hidden, c.seqLen, 1, c.tpDegree);
        const auto direct =
            analysis.evaluateDirect(c.hidden, c.seqLen, 1, c.tpDegree);
        e.compute.push_back(
            relativeError(proj.computeTime, direct.computeTime));
        e.fractionGap.push_back(direct.commFraction() -
                                proj.commFraction());
    }
    return e;
}

double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(q * (v.size() - 1))];
}

void
renderValidation(const FigureOptions &o, std::ostream &os)
{
    const ProjectionErrors e = projectionErrors(o.system);
    TextTable t({ "metric", "p50", "p90", "max" });
    t.addRowOf("compute-time projection error",
               formatPercent(quantile(e.compute, 0.5)),
               formatPercent(quantile(e.compute, 0.9)),
               formatPercent(maxOf(e.compute)));
    t.addRowOf("comm-fraction gap (direct - projected)",
               formatPercent(quantile(e.fractionGap, 0.5)),
               formatPercent(quantile(e.fractionGap, 0.9)),
               formatPercent(maxOf(e.fractionGap)));
    show(t, o, os);
}

Claims
validationClaims()
{
    const ProjectionErrors e = projectionErrors(SystemConfig());
    return {
        band("median compute-time projection error (paper: <15%)",
             quantile(e.compute, 0.5), 0.0, 0.15),
        check("projection is systematically optimistic about "
              "communication (the paper's stated caveat)",
              quantile(e.fractionGap, 0.5) > 0.0),
    };
}

// --- Section 5: required network scaling --------------------------

struct RequirementRow
{
    std::string line;
    NetworkRequirement requirement;
};

/** For each Figure 10 line at 1x/2x/4x compute, the bandwidth scale
 *  that keeps serialized comm at or below 25%. */
std::vector<RequirementRow>
requirementRows(const SystemConfig &sys)
{
    std::vector<RequirementRow> rows;
    for (const ModelLine &line : figure10Lines()) {
        for (double fs : { 1.0, 2.0, 4.0 }) {
            rows.push_back(
                { line.tag,
                  requiredBandwidthScale(
                      sys, line.hidden, line.seqLen, 1,
                      static_cast<int>(line.requiredTp), fs,
                      /*target_fraction=*/0.25) });
        }
    }
    return rows;
}

void
renderRequirements(const FigureOptions &o, std::ostream &os)
{
    TextTable t({ "model line", "flop scale", "comm w/o net scaling",
                  "required net scale", "comm achieved" });
    for (const RequirementRow &row : requirementRows(o.system)) {
        const NetworkRequirement &r = row.requirement;
        char scale[32];
        std::snprintf(scale, sizeof(scale), "%.2fx", r.requiredBwScale);
        t.addRowOf(row.line, r.flopScale,
                   formatPercent(r.unscaledCommFraction),
                   r.achievable ? scale : "unachievable (latency floor)",
                   formatPercent(r.achievedCommFraction));
    }
    show(t, o, os);
}

Claims
requirementClaims()
{
    bool commensurate = true;
    int achievable = 0;
    bool latency_floor = false;
    for (const RequirementRow &row : requirementRows(SystemConfig())) {
        const NetworkRequirement &r = row.requirement;
        if (r.achievable) {
            ++achievable;
            commensurate &= r.requiredBwScale >= r.flopScale;
        }
        latency_floor |= !r.achievable;
    }
    return {
        check("wherever the target is reachable, the network must "
              "scale at least commensurate with compute (required >= "
              "flop scale)",
              achievable > 0 && commensurate),
        check("at extreme TP the fabric becomes latency-bound: fatter "
              "links alone cannot reach the target (Section 5's case "
              "for topology/offload innovation)",
              latency_floor),
    };
}

// --- Section 6.3: distributed inference ---------------------------

constexpr std::int64_t kInferenceHidden = 12288; // GPT-3 class
constexpr int kInferenceTps[] = { 1, 2, 4, 8, 16 };
constexpr std::int64_t kInferenceContexts[] = { 512, 2048, 8192,
                                                32768 };

void
renderInference(const FigureOptions &o, std::ostream &os)
{
    const InferenceStudy study(o.system);
    TextTable t({ "phase", "TP", "compute", "serialized comm",
                  "comm fraction", "per-token latency" });
    for (int tp : kInferenceTps) {
        const auto pre = study.prefill(kInferenceHidden, 2048, 1, tp);
        t.addRowOf("prefill", tp, formatSeconds(pre.computeTime),
                   formatSeconds(pre.serializedCommTime),
                   formatPercent(pre.commFraction()), "-");
        const auto dec = study.decodeStep(kInferenceHidden, 2048, 1, tp);
        t.addRowOf("decode", tp, formatSeconds(dec.computeTime),
                   formatSeconds(dec.serializedCommTime),
                   formatPercent(dec.commFraction()),
                   formatSeconds(dec.tokenLatency()));
    }
    show(t, o, os);

    os << "\nDecode latency vs context length (TP = 8):\n";
    TextTable c({ "context", "per-token latency", "comm fraction" });
    for (std::int64_t context : kInferenceContexts) {
        const auto dec = study.decodeStep(kInferenceHidden, context, 1, 8);
        c.addRowOf(static_cast<long>(context),
                   formatSeconds(dec.tokenLatency()),
                   formatPercent(dec.commFraction()));
    }
    show(c, o, os);
}

Claims
inferenceClaims()
{
    const InferenceStudy study((SystemConfig()));
    const double decode_tp8 =
        study.decodeStep(kInferenceHidden, 2048, 1, 8).commFraction();
    const double prefill_tp8 =
        study.prefill(kInferenceHidden, 2048, 1, 8).commFraction();
    return {
        check("decode is clearly more communication-bound than "
              "prefill at the same TP",
              decode_tp8 > 1.4 * prefill_tp8),
        band("decode comm fraction at TP=8 (latency-bound "
             "collectives)",
             decode_tp8, 0.25, 0.90),
        check("longer contexts dilute the decode comm share (KV "
              "streaming grows, collectives don't)",
              study.decodeStep(kInferenceHidden, 32768, 1, 8)
                      .commFraction() <
                  study.decodeStep(kInferenceHidden, 512, 1, 8)
                      .commFraction()),
    };
}

// --- Straggler amplification through the ring all-reduce ----------

/** Jittered arrival vectors averaged per (devices, jitter) row. */
constexpr int kStragglerDraws = 32;

struct StragglerRow
{
    int devices = 0;
    double jitter = 0.0;
    Seconds idealCollective = 0.0;
    /** Means over kStragglerDraws arrival vectors. */
    Seconds finish = 0.0;
    Seconds stall = 0.0;
    double slowdown = 0.0;
};

/**
 * One slow device stalls the whole synchronized group, and the stall
 * grows with group size: a tail-latency effect the closed forms
 * cannot express. Each row draws its log-normal per-device compute
 * times from its own stream, splitmixSeed(1234, row).
 */
std::vector<StragglerRow>
stragglerRows(const SystemConfig &sys)
{
    const Bytes payload = 256.0 * 1024 * 1024;
    const Seconds base_compute = 10e-3;
    std::vector<StragglerRow> rows;
    for (int p : { 4, 16, 64 }) {
        const hw::Topology topo =
            hw::Topology::singleNode(sys.effectiveDevice(), p);
        const comm::RingSimResult ideal = comm::simulateRingCollective(
            topo, payload, std::vector<Seconds>(p, base_compute));
        for (double jitter : { 0.0, 0.05, 0.20 }) {
            StragglerRow row{ p, jitter, ideal.collectiveTime };
            Rng rng(splitmixSeed(1234, rows.size()));
            std::vector<Seconds> arrivals(p);
            for (int d = 0; d < kStragglerDraws; ++d) {
                for (Seconds &a : arrivals)
                    a = base_compute * rng.noiseFactor(jitter);
                const comm::RingSimResult r =
                    comm::simulateRingCollective(topo, payload,
                                                 arrivals);
                row.finish += r.finishTime;
                row.stall += r.maxStallTime;
                row.slowdown += r.finishTime / ideal.finishTime;
            }
            row.finish /= kStragglerDraws;
            row.stall /= kStragglerDraws;
            row.slowdown /= kStragglerDraws;
            rows.push_back(row);
        }
    }
    return rows;
}

void
renderStraggler(const FigureOptions &o, std::ostream &os)
{
    TextTable t({ "devices", "compute jitter", "ideal collective",
                  "mean finish", "mean stall of fastest device",
                  "mean slowdown" });
    for (const StragglerRow &r : stragglerRows(o.system)) {
        t.addRowOf(r.devices, formatPercent(r.jitter),
                   formatSeconds(r.idealCollective),
                   formatSeconds(r.finish), formatSeconds(r.stall),
                   r.slowdown);
    }
    show(t, o, os);
}

Claims
stragglerClaims()
{
    const auto rows = stragglerRows(SystemConfig());
    bool exact = true;
    Seconds exact_stall = 0.0;
    double worst = 0.0;
    for (const StragglerRow &r : rows) {
        if (r.jitter == 0.0) {
            exact = exact && r.slowdown == 1.0;
            exact_stall = std::max(exact_stall, r.stall);
        }
        worst = std::max(worst, r.slowdown);
    }
    // Rows are (4, 16, 64 devices) x (0%, 5%, 20% jitter).
    bool grows = true;
    for (std::size_t j = 1; j < 3; ++j)
        grows = grows && rows[j].slowdown < rows[3 + j].slowdown &&
                rows[3 + j].slowdown < rows[6 + j].slowdown;
    return {
        check("zero jitter reproduces the closed-form finish time "
              "(slowdown exactly 1)",
              exact),
        band("largest zero-jitter stall of the fastest device (s)",
             exact_stall, 0.0, 0.0),
        band("20% compute jitter inflates the synchronized finish "
             "time",
             worst, 1.05, 2.0),
        check("the mean slowdown grows with group size at 5% and 20% "
              "jitter",
              grows),
    };
}

// --- Sensitivity tornado ------------------------------------------

void
renderTornado(const FigureOptions &o, std::ostream &os)
{
    SensitivityConfig cfg;
    cfg.system = o.system;
    TextTable t({ "knob", "x0.5", "baseline", "x2.0", "swing" });
    for (const auto &e : sensitivityTornado(
             cfg, model::bertLarge(),
             runnerFor(o, "sweep_sensitivity_tornado"))) {
        t.addRowOf(e.knob, formatPercent(e.fractionLow),
                   formatPercent(e.fractionBase),
                   formatPercent(e.fractionHigh),
                   formatPercent(e.swing()));
    }
    show(t, o, os);
}

Claims
tornadoClaims()
{
    double tp_swing = 0.0, bw_swing = 0.0, b_swing = 1.0;
    for (const auto &e : sensitivityTornado(SensitivityConfig())) {
        if (e.knob == "TP degree")
            tp_swing = e.swing();
        if (e.knob == "network bandwidth")
            bw_swing = e.swing();
        if (e.knob == "batch (B)")
            b_swing = e.swing();
    }
    return {
        check("raising TP raises the comm fraction (Eq. 6 denominator)",
              tp_swing > 0.05),
        check("raising network bandwidth lowers the comm fraction",
              bw_swing < -0.05),
        check("batch size barely moves the serialized fraction (it "
              "scales comp and comm alike)",
              std::fabs(b_swing) < 0.06),
    };
}

// --- Ring vs tree all-reduce --------------------------------------

Seconds
allReduceTime(const comm::CollectiveModel &m, Bytes s, int p,
              comm::CollectiveAlgorithm algorithm)
{
    return m.cost({ comm::CollectiveKind::AllReduce, s, p, algorithm })
        .total;
}

void
renderRingVsTree(const FigureOptions &o, std::ostream &os)
{
    using comm::CollectiveAlgorithm;
    const comm::CollectiveModel m = o.system.collectiveModel();
    TextTable t({ "devices", "payload", "ring", "tree", "auto picks" });
    for (int p : { 8, 64, 256 }) {
        for (Bytes s : { 64e3, 1e6, 16e6, 256e6 }) {
            const Seconds ring =
                allReduceTime(m, s, p, CollectiveAlgorithm::Ring);
            const Seconds tree =
                allReduceTime(m, s, p, CollectiveAlgorithm::Tree);
            t.addRowOf(p, formatBytes(s), formatSeconds(ring),
                       formatSeconds(tree), tree < ring ? "tree" : "ring");
        }
    }
    show(t, o, os);

    os << "\ncrossover payload (tree wins below):\n";
    TextTable c({ "devices", "crossover" });
    for (int p : { 4, 8, 16, 64, 256 }) {
        const Bytes x = m.ringTreeCrossover(p);
        c.addRowOf(p, x > 0.0 ? formatBytes(x) : "never");
    }
    show(c, o, os);
}

Claims
ringVsTreeClaims()
{
    using comm::CollectiveAlgorithm;
    const comm::CollectiveModel m = SystemConfig().collectiveModel();
    const auto ring = [&](Bytes s, int p) {
        return allReduceTime(m, s, p, CollectiveAlgorithm::Ring);
    };
    const auto tree = [&](Bytes s, int p) {
        return allReduceTime(m, s, p, CollectiveAlgorithm::Tree);
    };
    return {
        check("the tree wins for small payloads at large group sizes",
              tree(64e3, 256) < ring(64e3, 256)),
        check("the ring wins for large payloads",
              ring(1e9, 8) < tree(1e9, 8)),
        check("the crossover payload grows with group size (more ring "
              "latency steps to amortize)",
              m.ringTreeCrossover(256) > m.ringTreeCrossover(8)),
        check("auto selection never loses to either algorithm",
              m.allReduceAuto(64e3, 256).total <= ring(64e3, 256) &&
                  m.allReduceAuto(1e9, 8).total <= tree(1e9, 8)),
    };
}

// --- Section 3.5: memory pressure history -------------------------

struct MemoryPressureRow
{
    const model::ZooEntry *entry = nullptr;
    hw::DeviceSpec device;
    int minTp = 0;
    /** Largest power-of-two micro-batch fitting at minTp. */
    std::int64_t maxBatch = 0;
};

/** Each zoo model on its own era's best device. */
std::vector<MemoryPressureRow>
memoryPressureRows()
{
    std::vector<MemoryPressureRow> rows;
    for (const model::ZooEntry &e : model::modelZoo()) {
        MemoryPressureRow row{ &e, hw::deviceOfYear(e.hp.year) };
        row.minTp = model::MemoryModel::minTpDegree(e.hp, row.device);
        for (std::int64_t b = 1; b <= 64; b *= 2) {
            model::ParallelPlan par;
            par.tpDegree = row.minTp;
            const model::MemoryModel mm(
                e.hp.withBatchSize(b).withCompatibleHeads(row.minTp),
                par);
            if (mm.fitsIn(row.device))
                row.maxBatch = b;
        }
        rows.push_back(row);
    }
    return rows;
}

void
renderMemoryPressure(const FigureOptions &o, std::ostream &os)
{
    TextTable t({ "model", "year", "era device", "HBM", "min TP",
                  "max micro-batch at min TP" });
    for (const MemoryPressureRow &r : memoryPressureRows()) {
        t.addRowOf(r.entry->hp.name, r.entry->hp.year, r.device.name,
                   formatBytes(r.device.memCapacity), r.minTp,
                   static_cast<long>(r.maxBatch));
    }
    show(t, o, os);
}

Claims
memoryPressureClaims()
{
    const auto rows = memoryPressureRows();
    return {
        check("required TP grows by more than an order of magnitude "
              "from BERT to PaLM",
              rows.back().minTp >= 16 * rows.front().minTp),
        check("the feasible micro-batch collapses toward 1 for the "
              "largest models",
              rows.front().maxBatch >= 8 && rows.back().maxBatch <= 4),
    };
}

// --- Robustness to the substrate's tuning constants ---------------

struct SubstrateRow
{
    double peakFraction = 0.0;
    Bytes halfSaturation = 0.0;
    /** Comm fraction of the H=64K future model at TP=256, 1x/4x. */
    double fraction1x = 0.0, fraction4x = 0.0;
};

std::vector<SubstrateRow>
substrateRows(const SystemConfig &base)
{
    std::vector<SubstrateRow> rows;
    for (double peak : { 0.80, 0.90, 0.95 }) {
        for (double half_sat_mib : { 0.5, 1.0, 2.0 }) {
            SystemConfig sys = base;
            sys.gemmEfficiency.peakFraction = peak;
            sys.linkEfficiency.halfSaturation =
                half_sat_mib * 1024 * 1024;
            rows.push_back(
                { peak, sys.linkEfficiency.halfSaturation,
                  AmdahlAnalysis(sys)
                      .evaluate(65536, 4096, 1, 256)
                      .commFraction(),
                  AmdahlAnalysis(scaledFlops(sys, 4.0))
                      .evaluate(65536, 4096, 1, 256)
                      .commFraction() });
        }
    }
    return rows;
}

void
renderSubstrate(const FigureOptions &o, std::ostream &os)
{
    TextTable t({ "GEMM peak frac", "link half-sat",
                  "future-model comm fraction (1x)",
                  "future-model comm fraction (4x)" });
    for (const SubstrateRow &r : substrateRows(o.system)) {
        t.addRowOf(r.peakFraction, formatBytes(r.halfSaturation),
                   formatPercent(r.fraction1x),
                   formatPercent(r.fraction4x));
    }
    show(t, o, os);
}

Claims
substrateClaims()
{
    double lo1 = 1.0, hi1 = 0.0, lo4 = 1.0, hi4 = 0.0;
    for (const SubstrateRow &r : substrateRows(SystemConfig())) {
        lo1 = std::min(lo1, r.fraction1x);
        hi1 = std::max(hi1, r.fraction1x);
        lo4 = std::min(lo4, r.fraction4x);
        hi4 = std::max(hi4, r.fraction4x);
    }
    // The paper's qualitative claims must survive every substrate
    // setting in the plausible range.
    return {
        band("1x comm fraction stays 'considerable' across the grid "
             "(low end)",
             lo1, 0.20, 0.55),
        band("1x comm fraction (high end)", hi1, 0.20, 0.55),
        band("4x comm fraction stays dominant (low end)", lo4, 0.40,
             0.80),
        band("4x comm fraction (high end)", hi4, 0.40, 0.80),
        check("4x hardware evolution raises the fraction for every "
              "substrate setting",
              lo4 > hi1 * 0.99),
    };
}

// --- The registry -------------------------------------------------

constexpr Figure kFigures[] = {
    { "2", "Table-2 zoo under its published 3D plans", false,
      renderZoo3d, zoo3dClaims },
    { "6", "Model and device memory capacity trends", false,
      renderFigure6, figure6Claims },
    { "7", "Algorithmic scaling of slack and edge", false,
      renderFigure7, figure7Claims },
    { "9b", "TP scaling with model size", false, renderFigure9b,
      figure9bClaims },
    { "10", "Fraction of serialized comm. time", true, renderFigure10,
      figure10Claims },
    { "11", "Overlapped comm. as a percentage of comp. time", false,
      renderFigure11, figure11Claims },
    { "12", "Hardware evolution vs serialized comm. fraction", true,
      renderFigure12, figure12Claims },
    { "12-des",
      "Hardware evolution on the DES: serialized, exposed and hidden "
      "comm",
      false, renderFigure12Des, figure12DesClaims },
    { "13", "Hardware evolution vs overlapped comm. percentage", false,
      renderFigure13, figure13Claims },
    { "14", "Overall Comp-vs-Comm case study", false, renderFigure14,
      figure14Claims },
    { "15", "Effectiveness of operator-level modeling", false,
      renderFigure15, figure15Claims },
    { "table2", "Different NLP model hyperparameters", false,
      renderTable2, table2Claims },
    { "speedup-profiling-cost", "Section 4.3.8: profiling speedups",
      false, renderProfilingCost, profilingCostClaims },
    { "hw-trends",
      "Section 4.3.6 / 2.4: compute vs network bandwidth scaling "
      "across GPU generations",
      false, renderHwTrends, hwTrendsClaims },
    { "ablation-moe",
      "Section 6.1.1: expert parallelism vs dense Comp-vs-Comm", false,
      renderMoe, moeClaims },
    { "ablation-pipeline",
      "Section 6.1.2: pipeline-parallel bubbles and p2p transfers",
      false, renderPipeline, pipelineClaims },
    { "ablation-precision",
      "Section 6.2: number formats: compute scales faster than bytes",
      false, renderPrecision, precisionClaims },
    { "ablation-comm-acceleration",
      "Section 5: accelerating communication", false,
      renderAcceleration, accelerationClaims },
    { "ablation-opmodel-fitting",
      "Section 4.3.8: operator-model calibration strategies", false,
      renderCalibration, calibrationClaims },
    { "ablation-dp-bucketing", "DP gradient-bucket granularity", false,
      renderBucketing, bucketingClaims },
    { "scaling-curves",
      "Best-layout throughput vs device count (GPT-3)", false,
      renderScaling, scalingClaims },
    { "validation-projection-error",
      "Projection vs ground truth over the full Table 3 serialized "
      "grid",
      false, renderValidation, validationClaims },
    { "network-requirements",
      "Section 5: required network scaling to keep comm <= 25%", false,
      renderRequirements, requirementClaims },
    { "inference-decode",
      "Section 6.3: distributed inference: prefill vs decode", false,
      renderInference, inferenceClaims },
    { "straggler",
      "Tail-latency amplification through the ring all-reduce", false,
      renderStraggler, stragglerClaims },
    { "sensitivity-tornado",
      "Comm-fraction tornado at H=16K, SL=2K, TP=64", false,
      renderTornado, tornadoClaims },
    { "ablation-ring-vs-tree",
      "Ring vs tree all-reduce: the latency/bandwidth trade", false,
      renderRingVsTree, ringVsTreeClaims },
    { "memory-pressure-history",
      "Section 3.5: memory pressure history: B down, TP up, era by era",
      false, renderMemoryPressure, memoryPressureClaims },
    { "ablation-substrate-sensitivity",
      "Robustness of the headline result to substrate tuning", false,
      renderSubstrate, substrateClaims },
};

} // namespace

std::span<const Figure>
figures()
{
    return kFigures;
}

const Figure *
findFigure(std::string_view id)
{
    for (const Figure &f : kFigures) {
        if (id == f.id)
            return &f;
    }
    return nullptr;
}

std::string
figureIdList()
{
    std::string list;
    const std::size_t n = std::size(kFigures);
    for (std::size_t i = 0; i < n; ++i) {
        if (i > 0)
            list += i + 1 == n ? " or " : ", ";
        list += kFigures[i].id;
    }
    return list;
}

} // namespace twocs::core
