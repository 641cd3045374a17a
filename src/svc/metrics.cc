#include "metrics.hh"

#include <algorithm>

#include "sim/graph_cache.hh"
#include "util/json.hh"
#include "util/stats.hh"

namespace twocs::svc {

void
ServiceMetrics::recordBatch(std::size_t size)
{
    ++batches_;
    ++batchSizes_[size];
}

double
ServiceMetrics::hitRate() const
{
    return requests_ == 0
               ? 0.0
               : static_cast<double>(hits_) /
                     static_cast<double>(requests_);
}

Seconds
ServiceMetrics::latencyPercentile(double q) const
{
    return percentile(latencySeconds_, q);
}

void
ServiceMetrics::absorb(const ServiceMetrics &other)
{
    requests_ += other.requests_;
    hits_ += other.hits_;
    misses_ += other.misses_;
    failures_ += other.failures_;
    batches_ += other.batches_;
    sheds_ += other.sheds_;
    overlongs_ += other.overlongs_;
    queueDepthHighWater_ =
        std::max(queueDepthHighWater_, other.queueDepthHighWater_);
    connectionsOpened_ += other.connectionsOpened_;
    openConnections_ += other.openConnections_;
    connectionsHighWater_ =
        std::max(connectionsHighWater_, other.connectionsHighWater_);
    latencySeconds_.insert(latencySeconds_.end(),
                           other.latencySeconds_.begin(),
                           other.latencySeconds_.end());
    for (const auto &[size, count] : other.batchSizes_)
        batchSizes_[size] += count;
}

Seconds
ServiceMetrics::latencyMax() const
{
    return percentile(latencySeconds_, 1.0);
}

void
ServiceMetrics::writeJson(std::ostream &os) const
{
    writeJson(os, {});
}

void
ServiceMetrics::writeJson(
    std::ostream &os,
    const std::vector<const ServiceMetrics *> &shards) const
{
    os << "{\n"
       << "  \"requests\": " << requests_ << ",\n"
       << "  \"hits\": " << hits_ << ",\n"
       << "  \"misses\": " << misses_ << ",\n"
       << "  \"failures\": " << failures_ << ",\n"
       << "  \"hit_rate\": " << json::number(hitRate()) << ",\n"
       << "  \"batches\": " << batches_ << ",\n"
       << "  \"sheds\": " << sheds_ << ",\n"
       << "  \"overlong_lines\": " << overlongs_ << ",\n"
       << "  \"queue_depth_high_water\": " << queueDepthHighWater_
       << ",\n"
       << "  \"connections_opened\": " << connectionsOpened_ << ",\n"
       << "  \"connections_high_water\": " << connectionsHighWater_
       << ",\n"
       << "  \"latency_seconds_p50\": "
       << json::number(latencyPercentile(0.50)) << ",\n"
       << "  \"latency_seconds_p95\": "
       << json::number(latencyPercentile(0.95)) << ",\n"
       << "  \"latency_seconds_p99\": "
       << json::number(latencyPercentile(0.99)) << ",\n"
       << "  \"latency_seconds_max\": " << json::number(latencyMax())
       << ",\n";
    // Process-wide compiled-graph cache behind the resident perturb
    // templates. Operator telemetry only: hit/miss splits depend on
    // scheduling, so this never appears in deterministic query
    // responses.
    const sim::GraphCacheStats gc =
        sim::GraphCache::instance().stats();
    os << "  \"graph_cache\": { \"hits\": " << gc.hits
       << ", \"misses\": " << gc.misses
       << ", \"evictions\": " << gc.evictions
       << ", \"entries\": " << gc.entries
       << ", \"capacity\": " << gc.capacity
       << ", \"hit_rate\": " << json::number(gc.hitRate()) << " },\n";
    if (!shards.empty()) {
        os << "  \"shards\": [";
        for (std::size_t i = 0; i < shards.size(); ++i) {
            const ServiceMetrics &m = *shards[i];
            os << (i == 0 ? "\n" : ",\n") << "    { \"shard\": " << i
               << ", \"requests\": " << m.requests()
               << ", \"latency_seconds_p50\": "
               << json::number(m.latencyPercentile(0.50))
               << ", \"latency_seconds_p99\": "
               << json::number(m.latencyPercentile(0.99))
               << ", \"latency_seconds_max\": "
               << json::number(m.latencyMax()) << " }";
        }
        os << "\n  ],\n";
    }
    os << "  \"batch_size_histogram\": [";
    bool first = true;
    for (const auto &[size, count] : batchSizes_) {
        os << (first ? "\n" : ",\n") << "    { \"size\": " << size
           << ", \"count\": " << count << " }";
        first = false;
    }
    os << (first ? "]\n" : "\n  ]\n") << "}\n";
}

} // namespace twocs::svc
