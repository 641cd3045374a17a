/**
 * @file
 * The query service's metrics registry.
 *
 * Counters (requests, cache hits, misses, failures), a nearest-rank
 * latency reservoir (p50/p95 over per-request service time) and a
 * power-of-two batch-size histogram. The registry is recorded from
 * the service's single-threaded commit phase only, so it needs no
 * locks and its *counters* are a deterministic function of the input
 * stream — which is why the `stats` query kind exposes only the
 * counters, while the wall-clock latency percentiles are exported
 * exclusively through `--metrics FILE` (they vary run to run and
 * would break the byte-identical `--jobs` contract if they appeared
 * on the response stream).
 */

#ifndef TWOCS_SVC_METRICS_HH
#define TWOCS_SVC_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <vector>

#include "util/units.hh"

namespace twocs::svc {

/** Single-writer counters + latency reservoir for one service. */
class ServiceMetrics
{
  public:
    /** One request seen (any kind, any outcome). */
    void recordRequest() { ++requests_; }

    /** A response served without a fresh evaluation (result cache or
     *  in-batch duplicate). */
    void recordHit() { ++hits_; }

    /** A response that required evaluating the analysis. */
    void recordMiss() { ++misses_; }

    /** A request rejected at parse time or failed at evaluation. */
    void recordFailure() { ++failures_; }

    /** One scheduler batch of `size` requests drained. */
    void recordBatch(std::size_t size);

    /** Per-request service latency sample. */
    void recordLatency(Seconds s) { latencySeconds_.push_back(s); }

    /** A request rejected by admission control (load shedding). */
    void recordShed() { ++sheds_; }

    /** A line dropped for exceeding the max-line-bytes cap. */
    void recordOverlong() { ++overlongs_; }

    /** Observe one shard queue's depth; keeps the high-water mark. */
    void noteQueueDepth(std::size_t depth)
    {
        if (depth > queueDepthHighWater_)
            queueDepthHighWater_ = depth;
    }

    /** Connection lifecycle events (the socket front-end). */
    void recordConnectionOpen()
    {
        ++connectionsOpened_;
        ++openConnections_;
        if (openConnections_ > connectionsHighWater_)
            connectionsHighWater_ = openConnections_;
    }
    void recordConnectionClose()
    {
        if (openConnections_ > 0)
            --openConnections_;
    }

    std::uint64_t requests() const { return requests_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t failures() const { return failures_; }
    std::uint64_t batches() const { return batches_; }
    std::uint64_t sheds() const { return sheds_; }
    std::uint64_t overlongs() const { return overlongs_; }
    std::size_t queueDepthHighWater() const
    {
        return queueDepthHighWater_;
    }
    std::uint64_t connectionsOpened() const
    {
        return connectionsOpened_;
    }
    std::uint64_t openConnections() const { return openConnections_; }
    std::uint64_t connectionsHighWater() const
    {
        return connectionsHighWater_;
    }

    /**
     * Fold another registry into this one: counters and histograms
     * sum, high-water marks take the max, latency reservoirs
     * concatenate. The socket front-end aggregates its per-shard
     * service registries this way before writing `--metrics`.
     */
    void absorb(const ServiceMetrics &other);

    /** Hits over requests (0 when no requests yet). */
    double hitRate() const;

    /** Nearest-rank percentile of the latency reservoir. */
    Seconds latencyPercentile(double q) const;

    /** Largest latency sample (0 when the reservoir is empty). */
    Seconds latencyMax() const;

    /**
     * Write the full registry as a JSON document (the `--metrics
     * FILE` payload): counters, hit rate, latency p50/p95/p99/max
     * and the batch-size histogram (buckets are exact batch sizes).
     * The overload taking `shards` additionally emits a `"shards"`
     * array with each shard registry's request count and latency
     * p50/p99/max, in shard order — the socket front-end passes its
     * per-shard service registries here so tail latency can be
     * attributed to the shard that incurred it.
     */
    void writeJson(std::ostream &os) const;
    void writeJson(std::ostream &os,
                   const std::vector<const ServiceMetrics *> &shards)
        const;

  private:
    std::uint64_t requests_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t failures_ = 0;
    std::uint64_t batches_ = 0;
    std::uint64_t sheds_ = 0;
    std::uint64_t overlongs_ = 0;
    std::size_t queueDepthHighWater_ = 0;
    std::uint64_t connectionsOpened_ = 0;
    std::uint64_t openConnections_ = 0;
    std::uint64_t connectionsHighWater_ = 0;
    std::vector<Seconds> latencySeconds_;
    /** batch size -> occurrence count. */
    std::map<std::size_t, std::uint64_t> batchSizes_;
};

} // namespace twocs::svc

#endif // TWOCS_SVC_METRICS_HH
