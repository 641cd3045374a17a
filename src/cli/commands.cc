#include "commands.hh"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <unistd.h>

#include "core/amdahl.hh"
#include "core/case_study.hh"
#include "core/cluster_sim.hh"
#include "core/inference_study.hh"
#include "core/planner.hh"
#include "core/precision_study.hh"
#include "core/slack.hh"
#include "core/sweep.hh"
#include "core/system_config.hh"
#include "exec/parallel_runner.hh"
#include "model/memory.hh"
#include "model/zoo.hh"
#include "net/framer.hh"
#include "net/server.hh"
#include "net/shard.hh"
#include "net/stream.hh"
#include "obs/obs.hh"
#include "obs/session.hh"
#include "profiling/roofline.hh"
#include "sim/trace.hh"
#include "svc/service.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/units.hh"
#include "util/version.hh"

namespace twocs::cli {

namespace {

core::SystemConfig
systemFrom(const Args &args)
{
    core::SystemConfig sys;
    if (args.has("device"))
        sys.device = hw::deviceByName(args.get("device"));
    sys.flopScale = args.getDouble("flop-scale", 1.0);
    sys.bwScale = args.getDouble("bw-scale", 1.0);
    if (args.getInt("pin", 0) != 0)
        sys.inNetworkReduction = true;

    // --topology single (default) | multi:<perNode>[:slowdown]
    const std::string topo = args.get("topology", "single");
    if (topo != "single") {
        fatalIf(topo.rfind("multi:", 0) != 0,
                "--topology expects 'single' or "
                "'multi:<devicesPerNode>[:slowdown]', got '", topo,
                "'");
        std::string spec = topo.substr(6);
        const std::size_t colon = spec.find(':');
        std::string per_node = spec.substr(0, colon);
        try {
            sys.devicesPerNode = std::stoi(per_node);
            if (colon != std::string::npos)
                sys.interNodeSlowdown =
                    std::stod(spec.substr(colon + 1));
        } catch (const std::exception &) {
            fatal("--topology multi: expects numeric "
                  "<devicesPerNode>[:slowdown], got '", topo, "'");
        }
        fatalIf(sys.devicesPerNode < 2,
                "--topology multi: needs >= 2 devices per node, got ",
                sys.devicesPerNode);
    }
    return sys;
}

/** Parse `--parallel tp=8,pp=4,dp=2,zero=1,ep=8` into a plan. */
model::ParallelPlan
parallelFrom(const Args &args)
{
    if (!args.has("parallel"))
        return model::ParallelPlan{};
    return model::ParallelPlan::parse(args.get("parallel"));
}

/** `--jobs N` (0, the default, means every core). A negative value
 *  or one too big for int is an error, never wrapped into range. */
int
jobsFrom(const Args &args)
{
    const std::int64_t jobs = args.getInt("jobs", 0);
    constexpr int kMax = std::numeric_limits<int>::max();
    fatalIf(jobs < 0,
            "option --jobs expects a non-negative count, got ", jobs);
    fatalIf(jobs > kMax, "option --jobs value ", jobs,
            " is too large (at most ", kMax, ")");
    return static_cast<int>(jobs);
}

exec::RunnerOptions
runnerFrom(const Args &args, const std::string &study)
{
    exec::RunnerOptions options;
    options.jobs = jobsFrom(args);
    options.reportPath = args.get("report");
    options.study = study;
    return options;
}

hw::Precision
precisionFrom(const Args &args)
{
    const std::string p = args.get("precision", "fp16");
    if (p == "fp32")
        return hw::Precision::FP32;
    if (p == "fp16")
        return hw::Precision::FP16;
    if (p == "bf16")
        return hw::Precision::BF16;
    if (p == "fp8")
        return hw::Precision::FP8;
    fatal("unknown precision '", p, "' (fp32|fp16|bf16|fp8)");
}

int
cmdZoo(const Args &)
{
    TextTable t({ "model", "year", "layers", "H", "heads", "SL",
                  "FC dim", "size (B)" });
    for (const model::ZooEntry &e : model::modelZoo()) {
        t.addRowOf(e.hp.name, e.hp.year, e.hp.numLayers,
                   static_cast<long>(e.hp.hidden), e.hp.numHeads,
                   static_cast<long>(e.hp.sequenceLength),
                   static_cast<long>(e.hp.fcDim),
                   e.publishedSizeBillions);
    }
    t.print(std::cout);
    return 0;
}

int
cmdAnalyze(const Args &args)
{
    const core::SystemConfig sys = systemFrom(args);
    model::ParallelPlan par;
    if (args.has("parallel")) {
        par = parallelFrom(args);
    } else {
        par.tpDegree = static_cast<int>(args.getInt("tp", 1));
        par.dpDegree = static_cast<int>(args.getInt("dp", 1));
    }
    model::Hyperparams hp =
        model::zooModel(args.get("model", "BERT")).hp;
    hp = hp.withCompatibleHeads(par.tpDegree);
    if (args.has("batch"))
        hp = hp.withBatchSize(args.getInt("batch", hp.batchSize));

    const model::LayerGraphBuilder graph(hp, par, precisionFrom(args));
    const profiling::RoleTotals p =
        sys.profiler().iterationTotals(graph);

    TextTable t({ "component", "time", "share" });
    const Seconds total = p.total;
    auto row = [&](const char *name, Seconds s) {
        t.addRowOf(name, formatSeconds(s), formatPercent(s / total));
    };
    row("forward compute", p.time(model::OpRole::FwdCompute));
    row("backward compute", p.time(model::OpRole::BwdCompute));
    row("optimizer", p.time(model::OpRole::OptimizerStep));
    row("serialized comm (TP/EP)", p.serializedCommTime());
    row("DP gradient comm", p.dpCommTime());
    t.print(std::cout);
    std::cout << "iteration (serialized view): "
              << formatSeconds(total) << "\n";
    return 0;
}

int
cmdProject(const Args &args)
{
    const core::SystemConfig sys = systemFrom(args);
    core::AmdahlAnalysis analysis(sys);
    model::ParallelPlan par;
    if (args.has("parallel")) {
        par = parallelFrom(args);
    } else {
        par.tpDegree = static_cast<int>(args.getInt("tp", 64));
    }
    const core::AmdahlPoint p = analysis.evaluate(
        args.getInt("hidden", 16384), args.getInt("seqlen", 2048),
        args.getInt("batch", 1), par);
    std::cout << "compute " << formatSeconds(p.computeTime)
              << ", serialized comm "
              << formatSeconds(p.serializedCommTime)
              << " -> comm fraction "
              << formatPercent(p.commFraction()) << "\n";
    return 0;
}

int
cmdSlack(const Args &args)
{
    core::SlackAnalysis analysis(systemFrom(args));
    const core::SlackPoint p = analysis.evaluate(
        args.getInt("hidden", 16384), args.getInt("slb", 4096),
        args.getInt("batch", 1));
    std::cout << "backprop compute "
              << formatSeconds(p.backpropComputeTime)
              << ", DP all-reduce " << formatSeconds(p.dpCommTime)
              << " -> overlap "
              << formatPercent(p.overlappedCommVsCompute())
              << (p.commExposed() ? " (EXPOSED)" : " (hidden)")
              << "\n";
    return 0;
}

int
cmdMemory(const Args &args)
{
    const core::SystemConfig sys = systemFrom(args);
    const model::Hyperparams hp =
        model::zooModel(args.get("model", "GPT-3")).hp;

    if (args.has("tp")) {
        const int tp = static_cast<int>(args.getInt("tp", 1));
        model::ParallelPlan par;
        par.tpDegree = tp;
        const model::MemoryModel mm(hp.withCompatibleHeads(tp), par,
                                    precisionFrom(args));
        const model::MemoryBreakdown b = mm.perDeviceFootprint();
        TextTable t({ "component", "bytes" });
        t.addRowOf("weights", formatBytes(b.weights));
        t.addRowOf("gradients", formatBytes(b.gradients));
        t.addRowOf("optimizer state", formatBytes(b.optimizerState));
        t.addRowOf("activations", formatBytes(b.activations));
        t.addRowOf("total", formatBytes(b.total()));
        t.print(std::cout);
        std::cout << (mm.fitsIn(sys.effectiveDevice()) ? "fits on "
                                                       : "DOES NOT fit on ")
                  << sys.device.name << "\n";
    } else {
        const int tp =
            model::MemoryModel::minTpDegree(hp, sys.effectiveDevice());
        std::cout << hp.name << " needs TP >= " << tp << " on "
                  << sys.device.name << "\n";
    }
    return 0;
}

int
cmdPlan(const Args &args)
{
    const core::SystemConfig sys = systemFrom(args);
    const model::Hyperparams hp =
        model::zooModel(args.get("model", "MT-NLG")).hp;

    core::PlannerOptions opts;
    opts.maxDevices =
        static_cast<int>(args.getInt("max-devices", 2048));
    opts.microBatches =
        static_cast<int>(args.getInt("micro-batches", 16));

    core::LayoutPlanner planner(sys, hp, precisionFrom(args));
    const auto layouts = planner.enumerate(opts);
    fatalIf(layouts.empty(), "no feasible layout for ", hp.name,
            " within ", opts.maxDevices, " devices");

    TextTable t({ "TP", "PP", "DP", "devices", "recompute",
                  "iteration", "comm fraction", "tokens/s" });
    const std::size_t show = std::min<std::size_t>(layouts.size(), 8);
    for (std::size_t i = 0; i < show; ++i) {
        const auto &c = layouts[i];
        t.addRowOf(c.tpDegree, c.pipelineStages, c.dpDegree,
                   c.totalDevices(), c.recompute ? "yes" : "no",
                   formatSeconds(c.iterationTime),
                   formatPercent(c.commFraction()),
                   c.tokensPerSecond);
    }
    t.print(std::cout);
    return 0;
}

int
cmdCluster(const Args &args)
{
    core::ClusterSim sim;
    core::ClusterSimConfig cfg;
    cfg.hidden = args.getInt("hidden", 8192);
    cfg.seqLen = args.getInt("seqlen", 2048);
    cfg.tpDegree = static_cast<int>(args.getInt("tp", 8));
    if (args.has("parallel")) {
        cfg.plan = parallelFrom(args);
        if (cfg.plan.tpDegree > 1)
            cfg.tpDegree = cfg.plan.tpDegree;
    }
    cfg.numLayers = static_cast<int>(args.getInt("layers", 4));
    cfg.computeJitter = args.getDouble("jitter", 0.0);
    cfg.seed = args.getInt("seed", 1);
    cfg.system = systemFrom(args);
    cfg.passes = args.get("passes");

    const int trials = static_cast<int>(args.getInt("trials", 1));
    fatalIf(trials < 1, "option --trials expects a positive count, got ",
            trials);
    if (trials > 1) {
        const core::ClusterTrialSummary summary =
            sim.runTrials(cfg, trials, runnerFrom(args, "cluster_trials"));
        TextTable t({ "trial (seed)", "iteration", "comm/device",
                      "stall/device", "stall fraction" });
        for (int i = 0; i < trials; ++i) {
            const auto &r = summary.trials[i];
            t.addRowOf(std::to_string(splitmixSeed(
                           cfg.seed, static_cast<std::uint64_t>(i))),
                       formatSeconds(r.iterationTime),
                       formatSeconds(r.commTimePerDevice),
                       formatSeconds(r.stallTimePerDevice),
                       formatPercent(r.stallFraction()));
        }
        t.print(std::cout);
        std::cout << "mean iteration "
                  << formatSeconds(summary.meanIterationTime)
                  << ", worst iteration "
                  << formatSeconds(summary.worstIterationTime) << "\n";
        return 0;
    }

    const core::ClusterSimResult r = sim.run(cfg);
    TextTable t({ "quantity", "value" });
    t.addRowOf("iteration (explicit group)",
               formatSeconds(r.iterationTime));
    t.addRowOf("compute / device",
               formatSeconds(r.computeTimePerDevice));
    t.addRowOf("ring comm / device",
               formatSeconds(r.commTimePerDevice));
    t.addRowOf("stall / device", formatSeconds(r.stallTimePerDevice));
    t.addRowOf("comm fraction", formatPercent(r.commFraction()));
    t.addRowOf("stall fraction", formatPercent(r.stallFraction()));
    t.print(std::cout);
    return 0;
}

int
cmdSweep(const Args &args)
{
    // Regenerate the Figure 10, 11 or 14 data grid, optionally as
    // CSV.
    const std::int64_t figure = args.getInt("figure", 10);
    const bool csv = args.getInt("csv", 0) != 0;
    const core::SystemConfig sys = systemFrom(args);
    const core::SweepSpace space = core::table3();
    const std::string passes = args.get("passes");
    // Figures 10 and 11 are closed-form grids: there is no task
    // graph for a pass pipeline to rewrite.
    fatalIf(!passes.empty() && figure != 14,
            "--passes only applies to --figure 14 (the event-engine "
            "case study); figure ", figure, " is analytic");
    fatalIf(args.has("engine") && figure != 12,
            "--engine only applies to --figure 12 (the "
            "hardware-evolution study); figure ", figure,
            " has a single evaluation path");

    if (figure == 10) {
        core::AmdahlAnalysis analysis(sys);
        std::vector<core::SerializedConfig> configs;
        for (const core::ModelLine &line : core::figure10Lines()) {
            for (std::int64_t tp : space.tpDegrees)
                configs.push_back({ line.hidden, line.seqLen, tp });
        }
        core::SerializedStudyOptions opts;
        opts.basePlan = parallelFrom(args);
        opts.runner = runnerFrom(args, "sweep_figure10");
        const auto points =
            core::runSerializedStudy(analysis, configs, opts);

        TextTable t({ "H", "SL", "TP", "comm_fraction" });
        for (const core::AmdahlPoint &p : points) {
            t.addRowOf(static_cast<long>(p.hidden),
                       static_cast<long>(p.seqLen), p.tpDegree,
                       p.commFraction());
        }
        csv ? t.printCsv(std::cout) : t.print(std::cout);
    } else if (figure == 12) {
        // Hardware evolution: the Figure 10 model lines at each
        // compute scaling step, optionally under a full 3D plan.
        const std::string engine = args.get("engine", "model");
        fatalIf(engine != "model" && engine != "event",
                "option --engine expects model|event, got '", engine,
                "'");
        std::vector<core::EvolutionConfig> configs =
            core::figure12Configs();
        if (engine == "model") {
            core::SerializedStudyOptions opts;
            opts.basePlan = parallelFrom(args);
            opts.runner = runnerFrom(args, "sweep_figure12");
            // An explicit tp= in --parallel pins the TP degree for
            // every line; otherwise each line keeps its required TP.
            if (opts.basePlan.tpDegree > 1) {
                for (core::EvolutionConfig &c : configs)
                    c.tpDegree = opts.basePlan.tpDegree;
            }
            const auto points =
                core::runHardwareEvolutionStudy(sys, configs, opts);

            TextTable t({ "model", "flop_scale", "H", "SL", "TP",
                          "plan", "comm_fraction" });
            for (const core::EvolutionPoint &p : points) {
                t.addRowOf(p.config.tag, p.config.flopScale,
                           static_cast<long>(p.config.hidden),
                           static_cast<long>(p.config.seqLen),
                           p.point.tpDegree, p.point.plan.summary(),
                           p.point.commFraction());
            }
            csv ? t.printCsv(std::cout) : t.print(std::cout);
        } else {
            // Ground truth on the event engine: one compile per
            // structure, a duration refill and replay per point,
            // byte-identical to a per-point rebuild (DESIGN.md §16).
            fatalIf(args.has("parallel"),
                    "--parallel only applies to --engine model: the "
                    "event-engine study runs each line at its "
                    "required TP degree");
            const auto points = core::runSimulatedEvolutionStudy(
                sys, configs, runnerFrom(args, "sweep_figure12"));

            TextTable t({ "model", "flop_scale", "H", "SL", "TP",
                          "iteration", "compute", "serialized_comm",
                          "exposed_comm", "hidden_comm" });
            for (const core::SimulatedEvolutionPoint &p : points) {
                t.addRowOf(p.config.tag, p.config.flopScale,
                           static_cast<long>(p.config.hidden),
                           static_cast<long>(p.config.seqLen),
                           static_cast<long>(p.config.tpDegree),
                           formatSeconds(p.result.makespan),
                           formatPercent(p.result.computeFraction()),
                           formatPercent(
                               p.result.serializedCommFraction()),
                           formatPercent(
                               p.result.exposedCommFraction()),
                           formatPercent(
                               p.result.hiddenCommFraction()));
            }
            csv ? t.printCsv(std::cout) : t.print(std::cout);
        }
    } else if (figure == 2) {
        // The table-2-style 3D zoo: every published configuration
        // profiled ground-truth under its full plan.
        const auto points = core::runParallelZooStudy(
            sys, runnerFrom(args, "sweep_zoo3d"));
        TextTable t({ "model", "plan", "devices", "compute",
                      "serialized_comm", "dp_comm",
                      "comm_fraction" });
        for (const core::ZooStudyPoint &p : points) {
            t.addRowOf(p.model, p.plan.summary(),
                       static_cast<long>(p.devices),
                       formatSeconds(p.computeTime),
                       formatSeconds(p.serializedCommTime),
                       formatSeconds(p.dpCommTime),
                       p.commFraction());
        }
        csv ? t.printCsv(std::cout) : t.print(std::cout);
    } else if (figure == 11) {
        core::SlackAnalysis analysis(sys);
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
        exec::ParallelSweepRunner runner(
            runnerFrom(args, "sweep_figure11"));
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
        csv ? t.printCsv(std::cout) : t.print(std::cout);
    } else if (figure == 14) {
        // The case study's scenario bars run on the event engine,
        // so this is the sweep mode a pass pipeline applies to.
        core::CaseStudy study;
        core::CaseStudyConfig base;
        base.system = sys;
        base.passes = passes;
        core::CaseStudyConfig internode = base;
        internode.interNodeDp = true;

        const std::vector<
            std::pair<const char *, core::CaseStudyConfig>>
            scenarios = { { "tp+dp_intra", base },
                          { "tp+dp_inter", internode } };
        TextTable t({ "scenario", "iteration", "compute",
                      "serialized_comm", "exposed_comm",
                      "hidden_comm" });
        for (const auto &[name, cfg] : scenarios) {
            const core::CaseStudyResult r = study.run(cfg);
            t.addRowOf(name, formatSeconds(r.makespan),
                       formatPercent(r.computeFraction()),
                       formatPercent(r.serializedCommFraction()),
                       formatPercent(r.exposedCommFraction()),
                       formatPercent(r.hiddenCommFraction()));
        }
        csv ? t.printCsv(std::cout) : t.print(std::cout);
    } else {
        fatal("--figure must be 2, 10, 11, 12 or 14, got ", figure);
    }
    return 0;
}

int
cmdInference(const Args &args)
{
    core::InferenceStudy study(systemFrom(args));
    const std::int64_t h = args.getInt("hidden", 12288);
    const std::int64_t ctx = args.getInt("context", 2048);
    const std::int64_t b = args.getInt("batch", 1);

    TextTable t({ "phase", "TP", "comm fraction",
                  "per-token latency" });
    for (int tp : { 1, 2, 4, 8, 16 }) {
        const auto pre = study.prefill(h, ctx, b, tp);
        const auto dec = study.decodeStep(h, ctx, b, tp);
        t.addRowOf("prefill", tp, formatPercent(pre.commFraction()),
                   "-");
        t.addRowOf("decode", tp, formatPercent(dec.commFraction()),
                   formatSeconds(dec.tokenLatency()));
    }
    t.print(std::cout);
    return 0;
}

int
cmdPrecision(const Args &args)
{
    const auto points = core::precisionStudy(
        systemFrom(args), args.getInt("hidden", 16384),
        args.getInt("seqlen", 2048), args.getInt("batch", 1),
        static_cast<int>(args.getInt("tp", 64)));
    TextTable t({ "precision", "compute", "serialized comm",
                  "comm fraction" });
    for (const auto &p : points) {
        t.addRowOf(hw::precisionName(p.precision),
                   formatSeconds(p.computeTime),
                   formatSeconds(p.serializedCommTime),
                   formatPercent(p.commFraction()));
    }
    t.print(std::cout);
    return 0;
}

int
cmdRoofline(const Args &args)
{
    const core::SystemConfig sys = systemFrom(args);
    const int tp = static_cast<int>(args.getInt("tp", 1));
    const hw::Precision prec = precisionFrom(args);
    const model::Hyperparams hp = model::zooModel(
                                      args.get("model", "BERT"))
                                      .hp.withCompatibleHeads(tp);
    model::ParallelPlan par;
    par.tpDegree = tp;
    const model::LayerGraphBuilder graph(hp, par, prec);
    const profiling::Profile profile =
        sys.profiler().profileLayer(graph, 0);
    const hw::DeviceSpec dev = sys.effectiveDevice();
    const profiling::RooflineSummary summary =
        profiling::rooflineSummary(dev, profile, prec);

    TextTable t({ "kernel", "FLOP/byte", "attained", "ceiling frac",
                  "bound" });
    for (const auto &p : summary.points) {
        t.addRowOf(p.label, p.arithmeticIntensity,
                   formatRate(p.attainedFlops, "FLOP"),
                   formatPercent(p.ceilingFraction),
                   p.computeBound ? "compute" : "memory");
    }
    t.print(std::cout);
    std::cout << "ridge point: "
              << profiling::ridgePoint(dev, prec)
              << " FLOP/byte; compute-bound time share "
              << formatPercent(summary.computeBoundTimeShare) << "\n";
    return 0;
}

int
cmdTrace(const Args &args)
{
    core::CaseStudy study;
    core::CaseStudyConfig cfg;
    const model::Hyperparams hp =
        model::zooModel(args.get("model", "BERT")).hp;
    cfg.hidden = args.getInt("hidden", hp.hidden);
    cfg.seqLen = args.getInt("seqlen", hp.sequenceLength);
    cfg.batch = args.getInt("batch", hp.batchSize);
    cfg.tpDegree = static_cast<int>(args.getInt("tp", 8));
    cfg.dpDegree = static_cast<int>(args.getInt("dp", 2));
    cfg.system = systemFrom(args);

    const std::string out = args.get("out", "trace.json");
    std::ofstream os(out);
    fatalIf(!os, "cannot open '", out, "' for writing");
    sim::exportChromeTrace(study.buildSchedule(cfg), os);
    std::cout << "wrote " << out
              << " (open in a Chrome-trace/Perfetto viewer)\n";
    return 0;
}

namespace {

/** The serve loop's stop eventfd, for the signal handlers. */
std::atomic<int> g_serveStopFd{ -1 };

/** SIGTERM/SIGINT: one async-signal-safe eventfd write asks the
 *  server for a graceful drain. */
void
serveStopHandler(int)
{
    const int fd = g_serveStopFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        const std::uint64_t one = 1;
        (void)!::write(fd, &one, sizeof one);
    }
}

} // namespace

int
cmdServe(const Args &args)
{
    svc::ServiceOptions options;
    options.jobs = jobsFrom(args);
    const std::int64_t capacity =
        args.getInt("cache-capacity", 4096);
    fatalIf(capacity < 0,
            "serve: --cache-capacity expects a non-negative count, "
            "got ", capacity);
    options.cacheCapacity = static_cast<std::size_t>(capacity);
    const std::int64_t batch = args.getInt("batch", 32);
    fatalIf(batch <= 0, "serve: --batch expects a positive batch "
            "size, got ", batch);
    options.batchCapacity = static_cast<std::size_t>(batch);
    options.metricsPath = args.get("metrics");

    const std::int64_t maxLine = args.getInt(
        "max-line-bytes",
        static_cast<std::int64_t>(
            net::LineFramer::kDefaultMaxLineBytes));
    fatalIf(maxLine <= 0,
            "serve: --max-line-bytes expects a positive byte "
            "count, got ", maxLine);
    const auto maxLineBytes = static_cast<std::size_t>(maxLine);

    if (args.has("listen")) {
        net::ServerOptions serverOptions;
        serverOptions.port =
            static_cast<int>(args.getInt("listen", 0));
        serverOptions.shards =
            static_cast<int>(args.getInt("shards", 4));
        const std::int64_t depth = args.getInt("queue-depth", 128);
        fatalIf(depth <= 0,
                "serve: --queue-depth expects a positive count, "
                "got ", depth);
        serverOptions.queueDepth = static_cast<std::size_t>(depth);
        serverOptions.shedPolicy = net::shedPolicyFromName(
            args.get("shed-policy", "reject"));
        serverOptions.retryAfterMs =
            args.getInt("retry-after-ms", 50);
        serverOptions.maxLineBytes = maxLineBytes;
        // The server writes the aggregate of every shard's registry;
        // per-shard services must not race it for the same file.
        serverOptions.metricsPath = options.metricsPath;
        options.metricsPath.clear();
        serverOptions.service = options;

        net::Server server(std::move(serverOptions));
        g_serveStopFd.store(server.stopEventFd(),
                            std::memory_order_relaxed);
        struct sigaction action = {};
        action.sa_handler = serveStopHandler;
        struct sigaction oldTerm = {};
        struct sigaction oldInt = {};
        ::sigaction(SIGTERM, &action, &oldTerm);
        ::sigaction(SIGINT, &action, &oldInt);

        inform("listening on 127.0.0.1:", server.port(), " (",
               args.getInt("shards", 4), " shards, queue depth ",
               depth, ", shed policy ",
               args.get("shed-policy", "reject"), ")");
        server.run();

        ::sigaction(SIGTERM, &oldTerm, nullptr);
        ::sigaction(SIGINT, &oldInt, nullptr);
        g_serveStopFd.store(-1, std::memory_order_relaxed);

        const net::ServerStats stats = server.stats();
        inform("drained: ", stats.accepted, " connections, ",
               stats.requests, " requests, ", stats.sheds,
               " shed, ", stats.overlongLines, " overlong");
        return 0;
    }

    svc::QueryService service(options);
    if (args.has("input")) {
        const std::string path = args.get("input");
        std::ifstream is(path);
        fatalIf(!is, "cannot open input file '", path, "'");
        net::serveStream(service, is, std::cout, maxLineBytes);
    } else {
        net::serveStream(service, std::cin, std::cout,
                         maxLineBytes);
    }
    return 0;
}

int
cmdValidate(const Args &args)
{
    const std::string path = args.get("trace");
    fatalIf(path.empty(), "validate: --trace FILE is required");
    std::ifstream is(path, std::ios::binary);
    fatalIf(!is, "cannot open '", path, "'");
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();
    try {
        json::validate(text);
    } catch (const FatalError &ex) {
        fatal("'", path, "' is not valid JSON: ", ex.what());
    }
    std::cout << path << ": valid JSON (" << text.size()
              << " bytes)\n";
    return 0;
}

int
cmdHelp(const Args &args)
{
    const std::string &topic = args.positional();
    if (topic.empty()) {
        printUsage(std::cout);
        return 0;
    }
    const CommandSpec *spec = findCommand(topic);
    if (spec == nullptr) {
        std::cerr << "error: unknown command '" << topic << "'\n";
        printUsage(std::cerr);
        return 2;
    }
    printCommandHelp(*spec, std::cout);
    return 0;
}

// --- the registry ---------------------------------------------------

const char *
metavar(FlagType type)
{
    switch (type) {
      case FlagType::Int:
        return "INT";
      case FlagType::Double:
        return "NUM";
      case FlagType::String:
        return "STR";
      case FlagType::Bool:
        return "BOOL";
    }
    return "VAL";
}

const char *
typeArticle(FlagType type)
{
    switch (type) {
      case FlagType::Int:
        return "an integer";
      case FlagType::Double:
        return "a number";
      case FlagType::String:
        return "a string";
      case FlagType::Bool:
        return "a boolean";
    }
    return "a";
}

/** Concatenate shared flag groups with a command's own flags. */
std::vector<FlagSpec>
flagsOf(std::initializer_list<std::vector<FlagSpec>> groups)
{
    std::vector<FlagSpec> all;
    for (const auto &group : groups)
        all.insert(all.end(), group.begin(), group.end());
    return all;
}

std::vector<CommandSpec>
buildRegistry()
{
    const std::vector<FlagSpec> system = {
        { "device", FlagType::String, "MI210",
          "hardware catalog device name" },
        { "flop-scale", FlagType::Double, "1",
          "scale device FLOP rate (future hw)" },
        { "bw-scale", FlagType::Double, "1",
          "scale link bandwidth (future hw)" },
        { "pin", FlagType::Bool, "0",
          "enable in-network (switch) reduction" },
        { "topology", FlagType::String, "single",
          "fabric: single or multi:<perNode>[:slowdown]" },
    };
    const std::vector<FlagSpec> parallel = {
        { "parallel", FlagType::String, "",
          "3D plan, e.g. tp=8,pp=4,dp=2,zero=1,ep=8" },
    };
    const std::vector<FlagSpec> precision = {
        { "precision", FlagType::String, "fp16",
          "number format: fp32|fp16|bf16|fp8" },
    };
    const std::vector<FlagSpec> runner = {
        { "jobs", FlagType::Int, "0",
          "worker threads (0 = all cores)" },
        { "report", FlagType::String, "",
          "write the RunReport JSON here" },
    };
    const std::vector<FlagSpec> trace = {
        { "trace-out", FlagType::String, "",
          "write a span trace of this run here" },
        { "trace-categories", FlagType::String, "all",
          "exec,svc,sim,comm,cli,bench,net or all" },
        { "trace-format", FlagType::String, "chrome",
          "trace file format: chrome|folded" },
    };

    std::vector<CommandSpec> registry;
    registry.push_back({ "zoo", "print the Table 2 model zoo", {},
                         cmdZoo });
    registry.push_back(
        { "analyze", "profile a training iteration",
          flagsOf({ { { "model", FlagType::String, "BERT",
                        "zoo model name" },
                      { "tp", FlagType::Int, "1",
                        "tensor-parallel degree" },
                      { "dp", FlagType::Int, "1",
                        "data-parallel degree" },
                      { "batch", FlagType::Int, "",
                        "override the zoo batch size" } },
                    parallel, system, precision }),
          cmdAnalyze });
    registry.push_back(
        { "project", "operator-model projection of a future model",
          flagsOf({ { { "hidden", FlagType::Int, "16384",
                        "hidden size H" },
                      { "seqlen", FlagType::Int, "2048",
                        "sequence length SL" },
                      { "batch", FlagType::Int, "1",
                        "batch size B" },
                      { "tp", FlagType::Int, "64",
                        "tensor-parallel degree" } },
                    parallel, system }),
          cmdProject });
    registry.push_back(
        { "slack", "overlapped-comm slack analysis",
          flagsOf({ { { "hidden", FlagType::Int, "16384",
                        "hidden size H" },
                      { "slb", FlagType::Int, "4096",
                        "SL*B token product" },
                      { "batch", FlagType::Int, "1",
                        "batch size B" } },
                    system }),
          cmdSlack });
    registry.push_back(
        { "memory", "per-device footprint / minimum TP",
          flagsOf({ { { "model", FlagType::String, "GPT-3",
                        "zoo model name" },
                      { "tp", FlagType::Int, "",
                        "footprint at this TP (else min TP)" } },
                    system, precision }),
          cmdMemory });
    registry.push_back(
        { "plan", "rank (TP, PP, DP) layouts by throughput",
          flagsOf({ { { "model", FlagType::String, "MT-NLG",
                        "zoo model name" },
                      { "max-devices", FlagType::Int, "2048",
                        "largest device count to consider" },
                      { "micro-batches", FlagType::Int, "16",
                        "pipeline micro-batches" } },
                    system, precision }),
          cmdPlan });
    registry.push_back(
        { "cluster", "explicit multi-device group simulation",
          flagsOf({ { { "hidden", FlagType::Int, "8192",
                        "hidden size H" },
                      { "seqlen", FlagType::Int, "2048",
                        "sequence length SL" },
                      { "tp", FlagType::Int, "8",
                        "tensor-parallel degree" },
                      { "layers", FlagType::Int, "4",
                        "transformer layers simulated" },
                      { "jitter", FlagType::Double, "0",
                        "per-device compute jitter fraction" },
                      { "seed", FlagType::Int, "1",
                        "base RNG seed" },
                      { "trials", FlagType::Int, "1",
                        "independent jittered trials" },
                      { "passes", FlagType::String, "",
                        "graph pass pipeline, e.g. fuse,dce" } },
                    parallel, system, runner, trace }),
          cmdCluster });
    registry.push_back(
        { "sweep", "regenerate a figure's data grid",
          flagsOf({ { { "figure", FlagType::Int, "10",
                        "figure to regenerate: 2, 10, 11, 12 or 14" },
                      { "csv", FlagType::Bool, "0",
                        "emit CSV instead of a table" },
                      { "passes", FlagType::String, "",
                        "graph pass pipeline (figure 14 only)" },
                      { "engine", FlagType::String, "model",
                        "figure 12 evaluation engine: model|event" } },
                    parallel, system, runner, trace }),
          cmdSweep });
    registry.push_back(
        { "inference", "prefill vs decode Comp-vs-Comm under TP",
          flagsOf({ { { "hidden", FlagType::Int, "12288",
                        "hidden size H" },
                      { "context", FlagType::Int, "2048",
                        "context length" },
                      { "batch", FlagType::Int, "1",
                        "batch size B" } },
                    system }),
          cmdInference });
    registry.push_back(
        { "precision", "comm fraction across number formats",
          flagsOf({ { { "hidden", FlagType::Int, "16384",
                        "hidden size H" },
                      { "seqlen", FlagType::Int, "2048",
                        "sequence length SL" },
                      { "batch", FlagType::Int, "1",
                        "batch size B" },
                      { "tp", FlagType::Int, "64",
                        "tensor-parallel degree" } },
                    system }),
          cmdPrecision });
    registry.push_back(
        { "roofline", "place one layer's kernels on the roofline",
          flagsOf({ { { "model", FlagType::String, "BERT",
                        "zoo model name" },
                      { "tp", FlagType::Int, "1",
                        "tensor-parallel degree" } },
                    system, precision }),
          cmdRoofline });
    registry.push_back(
        { "trace", "export a timeline as Chrome-trace JSON",
          flagsOf({ { { "model", FlagType::String, "BERT",
                        "zoo model name" },
                      { "hidden", FlagType::Int, "",
                        "hidden size (default: the model's)" },
                      { "seqlen", FlagType::Int, "",
                        "sequence length (default: the model's)" },
                      { "batch", FlagType::Int, "",
                        "batch size (default: the model's)" },
                      { "tp", FlagType::Int, "8",
                        "tensor-parallel degree" },
                      { "dp", FlagType::Int, "2",
                        "data-parallel degree" },
                      { "out", FlagType::String, "trace.json",
                        "output file" } },
                    system }),
          cmdTrace });
    registry.push_back(
        { "serve", "answer JSON-lines projection queries",
          flagsOf({ { { "input", FlagType::String, "",
                        "request file (default: stdin)" },
                      { "jobs", FlagType::Int, "0",
                        "worker threads (0 = all cores)" },
                      { "cache-capacity", FlagType::Int, "4096",
                        "result-cache entries; 0 disables" },
                      { "batch", FlagType::Int, "32",
                        "requests drained per batch" },
                      { "metrics", FlagType::String, "",
                        "write service metrics JSON here" },
                      { "listen", FlagType::Int, "",
                        "serve over TCP on 127.0.0.1:PORT "
                        "(0 = ephemeral)" },
                      { "shards", FlagType::Int, "4",
                        "worker shards (socket mode)" },
                      { "queue-depth", FlagType::Int, "128",
                        "bounded requests per shard queue" },
                      { "shed-policy", FlagType::String, "reject",
                        "overflow policy: reject or oldest" },
                      { "retry-after-ms", FlagType::Int, "50",
                        "retry hint in overloaded errors" },
                      { "max-line-bytes", FlagType::Int, "1048576",
                        "per-request-line byte cap" } },
                    trace }),
          cmdServe });
    registry.push_back(
        { "validate", "strict-parse a JSON artifact",
          { { "trace", FlagType::String, "",
              "JSON file to check (required)" } },
          cmdValidate });
    registry.push_back({ "help", "show a command's flags and defaults",
                         {}, cmdHelp });
    return registry;
}

} // namespace

const FlagSpec *
CommandSpec::findFlag(const std::string &flag) const
{
    for (const FlagSpec &f : flags) {
        if (f.name == flag)
            return &f;
    }
    return nullptr;
}

const std::vector<CommandSpec> &
commandRegistry()
{
    static const std::vector<CommandSpec> registry = buildRegistry();
    return registry;
}

const CommandSpec *
findCommand(const std::string &name)
{
    for (const CommandSpec &spec : commandRegistry()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

void
printUsage(std::ostream &os)
{
    os << "usage: twocs <command> "
          "[--key value | --key=value | --flag ...]\n"
          "\n"
          "commands:\n";
    std::size_t width = 0;
    for (const CommandSpec &spec : commandRegistry())
        width = std::max(width, spec.name.size());
    for (const CommandSpec &spec : commandRegistry()) {
        os << "  " << spec.name
           << std::string(width - spec.name.size() + 2, ' ')
           << spec.summary << "\n";
    }
    os << "\n"
          "run 'twocs help <command>' for that command's flags;\n"
          "'twocs --version' prints the library version.\n";
}

void
printCommandHelp(const CommandSpec &spec, std::ostream &os)
{
    os << "usage: twocs " << spec.name
       << (spec.name == "help" ? " [command]"
                               : spec.flags.empty() ? ""
                                                    : " [flags]")
       << "\n\n  " << spec.summary << "\n\nflags:\n";
    if (spec.flags.empty()) {
        os << "  (none)\n";
        return;
    }
    std::size_t width = 0;
    for (const FlagSpec &f : spec.flags) {
        width = std::max(width,
                         f.name.size() + 3 +
                             std::string(metavar(f.type)).size());
    }
    for (const FlagSpec &f : spec.flags) {
        const std::string head =
            "--" + f.name + " " + metavar(f.type);
        os << "  " << head << std::string(width - head.size() + 2, ' ')
           << f.help;
        if (!f.defaultValue.empty())
            os << " (default: " << f.defaultValue << ")";
        os << "\n";
    }
}

int
runCommand(const Args &args)
{
    const std::string &cmd = args.command();
    if (cmd == "--version") {
        std::cout << "twocs " << kVersion << "\n";
        return 0;
    }
    if (cmd.empty()) {
        std::cerr << "error: no command given\n";
        printUsage(std::cerr);
        return 2;
    }
    const CommandSpec *spec = findCommand(cmd);
    if (spec == nullptr) {
        std::cerr << "error: unknown command '" << cmd << "'\n";
        printUsage(std::cerr);
        return 2;
    }
    if (!args.positional().empty() && cmd != "help") {
        std::cerr << "error: unexpected argument '"
                  << args.positional() << "' for command '" << cmd
                  << "'\n";
        return 2;
    }
    // Typo rejection driven by the declared flag specs.
    for (const std::string &key : args.keys()) {
        const FlagSpec *flag = spec->findFlag(key);
        if (flag == nullptr) {
            std::cerr << "error: unknown option '--" << key
                      << "' for command '" << cmd
                      << "' (see 'twocs help " << cmd << "')\n";
            return 2;
        }
        if (args.wasBare(key) && flag->type != FlagType::Bool) {
            std::cerr << "error: option '--" << key
                      << "' of command '" << cmd << "' expects "
                      << typeArticle(flag->type) << " value\n";
            return 2;
        }
    }

    obs::TraceOptions trace_options;
    if (spec->findFlag("trace-out") != nullptr) {
        trace_options.outPath = args.get("trace-out");
        if (args.has("trace-categories")) {
            trace_options.categoryMask = obs::categoryMaskFromList(
                args.get("trace-categories"));
        }
        trace_options.format = args.get("trace-format", "chrome");
    }
    obs::TraceSession session(std::move(trace_options));
    int rc = 0;
    {
        TWOCS_OBS_SPAN(obs::Category::Cli, "cmd." + cmd);
        rc = spec->handler(args);
    }
    session.finish();
    return rc;
}

} // namespace twocs::cli
