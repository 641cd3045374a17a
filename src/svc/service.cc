#include "service.hh"

#include <chrono>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "core/amdahl.hh"
#include "core/case_study.hh"
#include "core/slack.hh"
#include "core/system_config.hh"
#include "exec/parallel_for.hh"
#include "hw/catalog.hh"
#include "model/layer_graph.hh"
#include "model/memory.hh"
#include "model/zoo.hh"
#include "obs/obs.hh"
#include "sim/graph.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace twocs::svc {

namespace {

using Clock = std::chrono::steady_clock;

Seconds
elapsed(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

/**
 * Response fragment for a failed request: `prefix` + the diagnostic
 * wrapped in a structured error object, plus the byte offset when
 * the error is a ParseError.
 */
std::string
errorPayload(const char *code, const std::string &prefix,
             const FatalError &error)
{
    std::string out = "\"status\":\"error\",\"error\":{\"code\":";
    out += json::quote(code);
    out += ",\"message\":";
    out += json::quote(prefix + error.what());
    if (const auto *syntax = dynamic_cast<const ParseError *>(&error))
        out += ",\"offset\":" + std::to_string(syntax->offset);
    out += "}";
    return out;
}

/** Assemble a full response line from an id token and a payload. */
std::string
assemble(const std::string &id_json, const std::string &payload)
{
    std::string line = "{";
    if (!id_json.empty())
        line += "\"id\":" + id_json + ",";
    line += payload;
    line += "}";
    return line;
}

std::string
field(const char *name, double v)
{
    return std::string(",\"") + name + "\":" + json::number(v);
}

std::string
field(const char *name, std::int64_t v)
{
    return std::string(",\"") + name + "\":" + std::to_string(v);
}

std::string
field(const char *name, bool v)
{
    return std::string(",\"") + name + "\":" + (v ? "true" : "false");
}

std::string
field(const char *name, const std::string &v)
{
    return std::string(",\"") + name + "\":" + json::quote(v);
}

/**
 * Whether the plan engages any axis beyond plain tp/dp. Only such
 * plans get a `parallel` summary field in the response, so tp/dp-only
 * requests keep their exact historical response bytes.
 */
bool
planBeyondTpDp(const model::ParallelPlan &plan)
{
    return plan.ppDegree > 1 || plan.microBatches > 1 ||
           plan.zeroStage > 0 || plan.epDegree > 1 ||
           plan.sequenceParallel || !plan.overlapDpComm;
}

} // namespace

/** One system's resident state: config + calibrated analyses. */
struct QueryService::SystemEntry
{
    core::SystemConfig system;
    core::AmdahlAnalysis amdahl;
    core::SlackAnalysis slack;

    explicit SystemEntry(core::SystemConfig sys)
        : system(std::move(sys)), amdahl(system), slack(system)
    {
    }
};

QueryService::QueryService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cacheCapacity)
{
    fatalIf(options_.jobs < 0,
            "serve: --jobs expects a non-negative count, got ",
            options_.jobs);
    fatalIf(options_.batchCapacity == 0,
            "serve: --batch expects a positive batch size");
}

QueryService::~QueryService() = default;

int
QueryService::effectiveJobs() const
{
    return options_.jobs <= 0 ? exec::defaultThreads() : options_.jobs;
}

const QueryService::SystemEntry &
QueryService::systemFor(const Query &query)
{
    std::string key = query.device;
    key += '|';
    key += json::number(query.flopScale);
    key += '|';
    key += json::number(query.bwScale);
    key += '|';
    key += query.inNetworkReduction ? '1' : '0';

    auto it = systems_.find(key);
    if (it == systems_.end()) {
        core::SystemConfig sys;
        sys.device = hw::deviceByName(query.device);
        sys.flopScale = query.flopScale;
        sys.bwScale = query.bwScale;
        sys.inNetworkReduction = query.inNetworkReduction;
        it = systems_
                 .emplace(std::move(key),
                          std::make_unique<SystemEntry>(std::move(sys)))
                 .first;
    }
    return *it->second;
}

std::string
QueryService::evaluate(const Query &query, const SystemEntry &entry)
{
    switch (query.kind) {
      case QueryKind::Project: {
        const core::AmdahlPoint p =
            query.groundTruth
                ? entry.amdahl.evaluateDirect(query.hidden,
                                              query.seqLen,
                                              query.batch, query.plan)
                : entry.amdahl.evaluate(query.hidden, query.seqLen,
                                        query.batch, query.plan);
        std::string out = "\"status\":\"ok\",\"kind\":\"project\"";
        out += field("hidden", query.hidden);
        out += field("seqlen", query.seqLen);
        out += field("batch", query.batch);
        out += field("tp", std::int64_t{ query.tpDegree });
        if (planBeyondTpDp(query.plan))
            out += field("parallel", query.plan.summary());
        out += field("ground_truth", query.groundTruth);
        out += field("compute_seconds", p.computeTime);
        out += field("serialized_comm_seconds", p.serializedCommTime);
        out += field("comm_fraction", p.commFraction());
        return out;
      }
      case QueryKind::Slack: {
        const core::SlackPoint p = entry.slack.evaluate(
            query.hidden, query.seqLen, query.batch);
        std::string out = "\"status\":\"ok\",\"kind\":\"slack\"";
        out += field("hidden", query.hidden);
        out += field("seqlen", query.seqLen);
        out += field("batch", query.batch);
        out += field("backprop_compute_seconds",
                     p.backpropComputeTime);
        out += field("dp_comm_seconds", p.dpCommTime);
        out += field("overlap_vs_compute",
                     p.overlappedCommVsCompute());
        out += field("exposed", p.commExposed());
        return out;
      }
      case QueryKind::Analyze: {
        model::Hyperparams hp = model::zooModel(query.model).hp;
        hp = hp.withCompatibleHeads(query.tpDegree);
        if (query.batchSet)
            hp = hp.withBatchSize(query.batch);
        query.plan.validate(hp);
        const model::LayerGraphBuilder graph(
            hp, query.plan, precisionFromName(query.precision));
        const profiling::RoleTotals p =
            entry.system.profiler().iterationTotals(graph);
        std::string out = "\"status\":\"ok\",\"kind\":\"analyze\"";
        out += field("model", query.model);
        out += field("tp", std::int64_t{ query.tpDegree });
        out += field("dp", std::int64_t{ query.dpDegree });
        if (planBeyondTpDp(query.plan))
            out += field("parallel", query.plan.summary());
        out += field("fwd_compute_seconds",
                     p.time(model::OpRole::FwdCompute));
        out += field("bwd_compute_seconds",
                     p.time(model::OpRole::BwdCompute));
        out += field("optimizer_seconds",
                     p.time(model::OpRole::OptimizerStep));
        out += field("serialized_comm_seconds",
                     p.serializedCommTime());
        out += field("dp_comm_seconds", p.dpCommTime());
        out += field("iteration_seconds", p.total);
        return out;
      }
      case QueryKind::Memory: {
        const model::Hyperparams hp = model::zooModel(query.model).hp;
        const hw::Precision prec =
            precisionFromName(query.precision);
        std::string out = "\"status\":\"ok\",\"kind\":\"memory\"";
        out += field("model", query.model);
        out += field("device", entry.system.device.name);
        if (query.tpSet) {
            const model::Hyperparams mhp =
                hp.withCompatibleHeads(query.tpDegree);
            query.plan.validate(mhp);
            const model::MemoryModel mm(mhp, query.plan, prec);
            const model::MemoryBreakdown b = mm.perDeviceFootprint();
            out += field("tp", std::int64_t{ query.tpDegree });
            if (planBeyondTpDp(query.plan))
                out += field("parallel", query.plan.summary());
            out += field("weights_bytes", b.weights);
            out += field("gradients_bytes", b.gradients);
            out += field("optimizer_bytes", b.optimizerState);
            out += field("activations_bytes", b.activations);
            out += field("total_bytes", b.total());
            out += field("fits",
                         mm.fitsIn(entry.system.effectiveDevice()));
        } else {
            const int tp = model::MemoryModel::minTpDegree(
                hp, entry.system.effectiveDevice(), 4096, prec);
            out += field("min_tp", std::int64_t{ tp });
        }
        return out;
      }
      case QueryKind::Perturb: {
        core::CaseStudyConfig cfg;
        cfg.hidden = query.hidden;
        cfg.seqLen = query.seqLen;
        cfg.batch = query.batch;
        cfg.tpDegree = query.tpDegree;
        cfg.dpDegree = query.dpDegree;
        cfg.system = entry.system;
        // Resolved through the bounded, process-wide GraphCache; the
        // shared_ptr pins the template even if it is evicted mid-use.
        const std::shared_ptr<const sim::GraphTemplate> compiled =
            core::CaseStudy().compileGraph(cfg);
        const sim::GraphTemplate &graph = *compiled;
        const auto tasks =
            static_cast<std::int64_t>(graph.numTasks());
        fatalIf(query.perturbTask >= tasks, "perturb.task ",
                query.perturbTask,
                " is out of range: this case-study graph has ",
                tasks, " tasks (0..", tasks - 1, ")");
        const auto task =
            static_cast<sim::TaskId>(query.perturbTask);

        // One arena per worker thread, rebound per graph (the
        // explicit reuse opt-in): a base replay, then one full replay
        // with the single scaled duration.
        thread_local sim::ReplayScratch scratch;
        thread_local std::vector<Seconds> durations;
        scratch.bind(graph);
        sim::replay(graph, {}, scratch);
        const Seconds base_makespan = scratch.makespan();
        const std::vector<Seconds> &base = graph.baseDurations();
        durations.assign(base.begin(), base.end());
        durations[static_cast<std::size_t>(task)] =
            base[static_cast<std::size_t>(task)] * query.perturbScale;
        sim::replay(graph, durations, scratch);
        const Seconds perturbed = scratch.makespan();

        std::string out = "\"status\":\"ok\",\"kind\":\"perturb\"";
        out += field("hidden", query.hidden);
        out += field("seqlen", query.seqLen);
        out += field("batch", query.batch);
        out += field("tp", std::int64_t{ query.tpDegree });
        out += field("dp", std::int64_t{ query.dpDegree });
        out += field("task", query.perturbTask);
        out += field("label", std::string(graph.taskLabel(task)));
        out += field("scale", query.perturbScale);
        out += field("base_seconds", base_makespan);
        out += field("perturbed_seconds", perturbed);
        out += field("delta_seconds", perturbed - base_makespan);
        return out;
      }
      case QueryKind::Stats:
        break; // handled by the commit phase, not here
    }
    panic("evaluate() called for a non-compute query kind");
}

std::string
QueryService::statsPayload() const
{
    std::string out = "\"status\":\"ok\",\"kind\":\"stats\"";
    out += field("proto", std::int64_t{ 2 });
    out += field("requests",
                 static_cast<std::int64_t>(metrics_.requests()));
    out += field("hits", static_cast<std::int64_t>(metrics_.hits()));
    out += field("misses",
                 static_cast<std::int64_t>(metrics_.misses()));
    out += field("failures",
                 static_cast<std::int64_t>(metrics_.failures()));
    out += field("cache_entries",
                 static_cast<std::int64_t>(cache_.size()));
    // Deterministic span counts (durations are wall-clock noise and
    // stay out of the response contract). Only svc-category spans
    // are reported, and only while a tracer is actually recording —
    // untraced runs keep the exact pre-tracing response bytes.
    if (obs::Tracer::mask() != 0) {
        out += ",\"spans\":{";
        bool first = true;
        for (const auto &[label, count] : obs::Tracer::countsByLabel(
                 static_cast<unsigned>(obs::Category::Svc))) {
            if (!first)
                out += ',';
            first = false;
            out += json::quote(label);
            out += ':';
            out += std::to_string(count);
        }
        out += "}";
    }
    return out;
}

void
QueryService::processBatch(NumberedLines &&lines, std::ostream &out)
{
    enum class Outcome { ParseError, CacheHit, Duplicate, Compute,
                         Stats };

    struct BatchEntry
    {
        std::size_t lineNo = 0;
        Query query;
        std::string idJson;
        Outcome outcome = Outcome::ParseError;
        std::size_t dupOf = 0;
        std::string key;
        const SystemEntry *system = nullptr;
        std::string payload;
        /** Cache-resident bytes (hits and committed misses); when
         *  set, the response body — `payload` stays empty, nothing
         *  is copied out of the cache. */
        ShardedLruCache::ValuePtr shared;
        bool failed = false;
        Seconds seconds = 0.0;

        const std::string &body() const
        {
            return shared ? *shared : payload;
        }
    };

    metrics_.recordBatch(lines.size());
    std::vector<BatchEntry> entries(lines.size());

    // Phase 1 (sequential, arrival order): parse, normalize,
    // resolve the system (calibrating it on first sight), then
    // classify against the cache and the batch's own pending keys.
    {
        TWOCS_OBS_SPAN(obs::Category::Svc, "svc.batch.parse",
                       [&lines] {
                           return "requests=" +
                                  std::to_string(lines.size());
                       });
        std::unordered_map<std::string, std::size_t> pending;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            BatchEntry &e = entries[i];
            e.lineNo = lines[i].first;
            const auto start = Clock::now();
            try {
                e.query = parseQuery(lines[i].second);
                e.idJson = e.query.idJson;
                if (e.query.kind == QueryKind::Stats) {
                    e.outcome = Outcome::Stats;
                } else {
                    e.system = &systemFor(e.query);
                    e.key = canonicalKey(e.query);
                    if (auto hit = cache_.get(e.key)) {
                        e.outcome = Outcome::CacheHit;
                        e.shared = std::move(hit);
                    } else if (const auto p = pending.find(e.key);
                               p != pending.end()) {
                        e.outcome = Outcome::Duplicate;
                        e.dupOf = p->second;
                    } else {
                        e.outcome = Outcome::Compute;
                        pending.emplace(e.key, i);
                    }
                }
            } catch (const FatalError &ex) {
                e.outcome = Outcome::ParseError;
                e.failed = true;
                e.idJson = tryExtractIdJson(lines[i].second);
                e.payload = errorPayload(
                    "parse_error",
                    "line " + std::to_string(e.lineNo) + ": ", ex);
            }
            e.seconds = elapsed(start);
        }
    }

    // Phase 2: evaluate the distinct misses on parallelFor — the
    // inline arrival-order loop at one job (or one miss), chunked
    // across the workers otherwise. Workers only touch their own
    // entry. The
    // svc.evaluate span is the task's only svc instrumentation on
    // every path, so span counts are jobs-invariant.
    {
        TWOCS_OBS_SPAN(obs::Category::Svc, "svc.batch.evaluate");
        std::vector<BatchEntry *> misses;
        for (BatchEntry &e : entries) {
            if (e.outcome == Outcome::Compute)
                misses.push_back(&e);
        }
        exec::parallelFor(
            misses.size(),
            exec::ParallelForOptions{ .jobs = effectiveJobs() },
            [this, &misses](std::size_t i) {
                BatchEntry &e = *misses[i];
                TWOCS_OBS_SPAN(obs::Category::Svc, "svc.evaluate");
                const auto start = Clock::now();
                try {
                    e.payload = evaluate(e.query, *e.system);
                } catch (const FatalError &ex) {
                    e.failed = true;
                    e.payload = errorPayload("eval_error", "", ex);
                }
                e.seconds += elapsed(start);
            });
    }

    // Phase 3 (sequential, arrival order): resolve duplicates,
    // update counters and the cache, emit responses. A stats query
    // snapshots the counters as of its own position in the stream.
    // Cache hit/miss instants live here (not in the racy phases) so
    // their order and count are deterministic; the still-open commit
    // span is invisible to this batch's own stats queries.
    {
        TWOCS_OBS_SPAN(obs::Category::Svc, "svc.batch.commit");
        for (BatchEntry &e : entries) {
            metrics_.recordRequest();
            switch (e.outcome) {
              case Outcome::ParseError:
                metrics_.recordFailure();
                break;
              case Outcome::CacheHit:
                TWOCS_OBS_INSTANT(obs::Category::Svc,
                                  "svc.cache.hit");
                metrics_.recordHit();
                break;
              case Outcome::Duplicate: {
                const BatchEntry &source = entries[e.dupOf];
                // Share the source's bytes; a failed source carries
                // its error in `payload`, a successful one was just
                // committed to the cache as `shared`.
                e.shared = source.shared;
                if (!source.shared)
                    e.payload = source.payload;
                e.failed = source.failed;
                if (!e.failed) {
                    TWOCS_OBS_INSTANT(obs::Category::Svc,
                                      "svc.cache.hit");
                }
                e.failed ? metrics_.recordFailure()
                         : metrics_.recordHit();
                break;
              }
              case Outcome::Compute:
                if (e.failed) {
                    metrics_.recordFailure();
                } else {
                    TWOCS_OBS_INSTANT(obs::Category::Svc,
                                      "svc.cache.miss");
                    metrics_.recordMiss();
                    // Store the very bytes we are about to emit —
                    // one allocation, zero copies.
                    e.shared = std::make_shared<const std::string>(
                        std::move(e.payload));
                    cache_.put(e.key, e.shared);
                }
                break;
              case Outcome::Stats:
                e.payload = statsPayload();
                break;
            }
            metrics_.recordLatency(e.seconds);
            out << assemble(e.idJson, e.body()) << "\n";
        }
    }
    out.flush();
}

void
QueryService::serve(std::istream &in, std::ostream &out)
{
    NumberedLines batch;
    std::string line;
    while (std::getline(in, line)) {
        ++lineNo_;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        batch.emplace_back(lineNo_, std::move(line));
        if (batch.size() >= options_.batchCapacity) {
            processBatch(std::move(batch), out);
            batch.clear();
        }
    }
    if (!batch.empty())
        processBatch(std::move(batch), out);

    writeMetricsIfConfigured();
}

void
QueryService::writeMetricsIfConfigured()
{
    if (options_.metricsPath.empty())
        return;
    std::ofstream os(options_.metricsPath);
    fatalIf(!os, "cannot open metrics file '", options_.metricsPath,
            "' for writing");
    metrics_.writeJson(os);
    inform("wrote service metrics ", options_.metricsPath, " (",
           metrics_.requests(), " requests, hit rate ",
           json::number(metrics_.hitRate()), ")");
}

void
QueryService::processLines(NumberedLines &&lines, std::ostream &out)
{
    processBatch(std::move(lines), out);
}

std::string
QueryService::handle(const std::string &line)
{
    return handle(line, ++lineNo_);
}

std::string
QueryService::handle(const std::string &line, std::size_t lineNo)
{
    NumberedLines batch;
    batch.emplace_back(lineNo, line);
    std::ostringstream os;
    processBatch(std::move(batch), os);
    std::string response = os.str();
    if (!response.empty() && response.back() == '\n')
        response.pop_back();
    return response;
}

} // namespace twocs::svc
