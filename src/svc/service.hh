/**
 * @file
 * The projection query service: an always-on front-end over the
 * paper's profile-once / project-forever methodology (§4).
 *
 * Instead of re-running a study binary per question, the service
 * keeps the calibrated analyses resident and answers arbitrary
 * (H, B, SL, TP) questions over a JSON-lines protocol
 * (svc/protocol.hh). Three layers make it serve-heavy-traffic
 * shaped:
 *
 *  - an **analysis registry**: one calibrated AmdahlAnalysis +
 *    SlackAnalysis per distinct system (device x flop-scale x
 *    bw-scale x pin), built lazily and reused for every subsequent
 *    query against that system, amortizing calibration;
 *  - a **sharded LRU result cache** (svc/cache.hh) keyed by the
 *    canonical FNV-1a query key, so repeated configurations are
 *    answered byte-identically without re-evaluation;
 *  - a **batching scheduler**: requests are drained in fixed-size
 *    batches; within a batch, cache hits and in-batch duplicates are
 *    resolved in arrival order, the remaining distinct misses fan
 *    out over exec::parallelFor, and responses are committed in
 *    arrival order.
 *
 * Determinism contract (§7 of DESIGN.md): for a given input stream
 * the response stream — including every counter a `stats` query can
 * observe — is byte-identical at any `--jobs` count. This holds
 * because classification, cache mutation, counter updates and
 * response emission all happen in the single-threaded arrival-order
 * phases; worker threads only evaluate pure functions into their own
 * slots. Wall-clock latencies are deliberately quarantined in the
 * `--metrics FILE` export, which is outside the contract.
 *
 * Telemetry goes to one obs::Metrics registry per service (the
 * `--metrics` schema is serveMetrics()), recorded in the commit phase
 * only: its counters are a deterministic function of the input, its
 * latency histogram and batch-size tally are fixed-size, and the
 * socket front-end merges the shards' registries with its own.
 */

#ifndef TWOCS_SVC_SERVICE_HH
#define TWOCS_SVC_SERVICE_HH

#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "svc/cache.hh"
#include "svc/protocol.hh"

namespace twocs::svc {

/** Knobs of one service instance (the `twocs serve` flags). */
struct ServiceOptions
{
    /** Worker threads for a batch's misses; 0 selects
     *  hardware_concurrency, 1 evaluates inline. */
    int jobs = 0;
    /** Result-cache entries across all shards; 0 disables caching. */
    std::size_t cacheCapacity = 4096;
    /** Requests drained per scheduler batch. */
    std::size_t batchCapacity = 32;
};

/**
 * A registry with every `--metrics` key declared in file order:
 * request counters and hit rate, the front-ends' shed, overlong and
 * connection counts, the latency histogram, the `graph_cache`
 * section, the per-shard `shards` rows and the batch-size tally.
 */
obs::Metrics serveMetrics();

/**
 * Write `metrics` to `path` as the `--metrics` JSON, after filling
 * its `graph_cache` section from the process-wide sim::GraphCache;
 * fatal() when the file cannot be opened.
 */
void writeServeMetrics(obs::Metrics metrics, const std::string &path);

/**
 * A resident query service over one result cache and one analysis
 * registry. The public API is single-threaded (one serve loop);
 * parallelism lives inside the per-batch evaluation fan-out.
 */
class QueryService
{
  public:
    explicit QueryService(ServiceOptions options = {});
    ~QueryService();

    QueryService(const QueryService &) = delete;
    QueryService &operator=(const QueryService &) = delete;

    /**
     * Process a single request line through the same batched
     * pipeline (a batch of one) and return its response line without
     * the trailing newline. Cache-aware: a second identical call is
     * a warm hit and returns byte-identical bytes.
     */
    std::string handle(const std::string &line);

    /**
     * handle() with an explicit line number for diagnostics, instead
     * of the service's own running count. The network front-end's
     * shard workers use this so a parse error names the line's
     * position *within its connection's stream* — making error
     * responses byte-identical to serving the same file over stdin.
     */
    std::string handle(const std::string &line, std::size_t lineNo);

    /** Numbered raw request lines forming one scheduler batch. */
    using NumberedLines = std::vector<std::pair<std::size_t, std::string>>;

    /**
     * Feed one externally assembled batch through the scheduler —
     * the entry point for the front-ends that own the read loop
     * (net::serveStream for stdin, the socket shards). Lines carry
     * their own stream positions; responses are written in arrival
     * order.
     */
    void processLines(NumberedLines &&lines, std::ostream &out);

    /** The service's registry (serveMetrics() keys). The stdin
     *  front-end records its overlong lines here too. */
    const obs::Metrics &metrics() const { return metrics_; }
    obs::Metrics &metrics() { return metrics_; }
    const ShardedLruCache &cache() const { return cache_; }
    const ServiceOptions &options() const { return options_; }

    /** Resolved worker count (options.jobs with 0 expanded). */
    int effectiveJobs() const;

  private:
    /** One system's resident calibrated analyses. */
    struct SystemEntry;

    /** Registry lookup, calibrating on first use. Must be called
     *  from the sequential phases only. */
    const SystemEntry &systemFor(const Query &query);

    /** Per-query evaluation; safe to call from workers. Perturb
     *  queries resolve their case-study template through the
     *  thread-safe, bounded sim::GraphCache and replay it into a
     *  thread-local scratch, so no state is shared across workers. */
    static std::string evaluate(const Query &query,
                                const SystemEntry &system);

    /** Deterministic counter snapshot for a `stats` response. */
    std::string statsPayload() const;

    ServiceOptions options_;
    ShardedLruCache cache_;
    obs::Metrics metrics_ = serveMetrics();
    obs::Counter &requests_ = metrics_.counter("requests");
    obs::Counter &hits_ = metrics_.counter("hits");
    obs::Counter &misses_ = metrics_.counter("misses");
    obs::Counter &failures_ = metrics_.counter("failures");
    obs::Counter &batches_ = metrics_.counter("batches");
    obs::Tally &batchSizes_ =
        metrics_.tally("batch_size_histogram", "size");
    obs::Histogram &latency_ = metrics_.histogram("latency_seconds");
    std::map<std::string, std::unique_ptr<SystemEntry>> systems_;
    std::size_t lineNo_ = 0;
};

} // namespace twocs::svc

#endif // TWOCS_SVC_SERVICE_HH
