/**
 * @file
 * Process-wide cache of compiled graph templates.
 *
 * Every sweep engine in the repo ends at the same bottleneck: a
 * GraphTemplate is immutable and replayable from any thread, yet each
 * call site that needed one kept compiling (or thread-locally
 * caching) its own copy. The ring simulator held a `thread_local
 * std::map` — duplicated per worker and cold for every new thread —
 * while ClusterSim and the case study rebuilt from scratch on every
 * configuration. GraphCache centralizes the compile-once half of the
 * compile-once/replay-many contract: one sharded, bounded, LRU cache
 * keyed by a caller-built structural key string, shared by every
 * thread in the process.
 *
 * Key discipline: the key must capture everything the compiled
 * artifact depends on — builder fingerprint (hyperparameters,
 * topology, plan summary) — and nothing that only feeds replay
 * (durations, jitter seeds, arrival times).
 * Keys are compared by full string equality; the hash only picks the
 * shard, so a hash collision can never alias two configurations.
 *
 * Concurrency: lookups take one shard mutex. A miss compiles
 * *outside* the lock (concurrent misses for different keys compile in
 * parallel; a raced duplicate for the same key is discarded in favor
 * of the first insert). Counters are per-shard under the same mutex
 * and aggregated by stats(). Entries are `shared_ptr<const ...>`, so
 * an eviction never invalidates a template a replay is still using.
 *
 * Observability: hits, misses and evictions emit `sim.cache.*`
 * instants under obs Category::Sim, and stats() feeds the service's
 * `--metrics` JSON. Neither surface participates in the determinism
 * contract — under a parallel sweep the hit/miss split depends on
 * scheduling — which is exactly why the *results* of every cached
 * path are gated bit-identical to their rebuild oracle instead.
 */

#ifndef TWOCS_SIM_GRAPH_CACHE_HH
#define TWOCS_SIM_GRAPH_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "sim/graph.hh"

namespace twocs::sim {

/** Aggregated counters across every shard. */
struct GraphCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;

    double hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

class GraphCache
{
  public:
    /**
     * A cached compile result: the immutable template plus optional
     * caller-typed derived data (the ring simulator stores its
     * final-task ids here). The aux pointer is
     * type-erased so sim does not depend on its consumers; use
     * auxAs<T>() to read it back.
     */
    struct Compiled
    {
        std::shared_ptr<const GraphTemplate> graph;
        std::shared_ptr<const void> aux;
    };

    /** Default total capacity (entries across all shards). Sized for
     *  the 3D sweeps: a few hundred structural configurations fit in
     *  tens of MB of templates. */
    static constexpr std::size_t kDefaultCapacity = 256;

    /** The process-wide instance every call site shares. */
    static GraphCache &instance();

    GraphCache();
    explicit GraphCache(std::size_t capacity);

    GraphCache(const GraphCache &) = delete;
    GraphCache &operator=(const GraphCache &) = delete;

    /**
     * Return the entry for `key`, compiling it with `compile` on a
     * miss. The callable runs outside every cache lock; if two
     * threads miss the same key simultaneously both compile, and the
     * second insert is discarded in favor of the first (both callers
     * still receive a usable entry). A zero-capacity cache never
     * stores anything — every call compiles (the forced-miss test
     * hook). compile() must return a non-null graph; a null graph
     * panics rather than caching a poisoned entry.
     */
    Compiled getOrCompile(std::string_view key,
                          const std::function<Compiled()> &compile);

    /** Read back a typed aux pointer stored by the compile callable. */
    template <typename T>
    static std::shared_ptr<const T> auxAs(const Compiled &compiled)
    {
        return std::static_pointer_cast<const T>(compiled.aux);
    }

    GraphCacheStats stats() const;

    /** Drop every entry (counters keep accumulating). Outstanding
     *  shared_ptrs stay valid; only the cache's references go. */
    void clear();

    /**
     * Change the total capacity, evicting LRU entries of any shard
     * now over its share. Capacity 0 disables storage entirely —
     * every getOrCompile() compiles and counts a miss.
     */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const;

    /** Reset hit/miss/evict counters (test hook). */
    void resetStats();

    /** Which shard a key lands in (FNV-1a of the full key). Exposed
     *  so tests can construct same-shard key sets and pin the LRU
     *  eviction order without reaching into the shards. */
    static std::size_t shardIndex(std::string_view key);

    static constexpr std::size_t kShards = 8;

  private:

    struct Entry
    {
        std::string key;
        Compiled value;
    };

    struct Shard
    {
        mutable std::mutex mu;
        /** Front = most recently used. */
        std::list<Entry> lru;
        /** Views into the list nodes' keys (list nodes are stable). */
        std::unordered_map<std::string_view,
                           std::list<Entry>::iterator>
            byKey;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    Shard &shardFor(std::string_view key);
    /** Max entries one shard may hold under the current capacity. */
    std::size_t shardCapacity() const;
    /** Evict from the back of one shard until it fits (mu held). */
    void evictOver(Shard &shard, std::size_t limit);

    Shard shards_[kShards];
    std::atomic<std::size_t> capacity_{ kDefaultCapacity };
};

} // namespace twocs::sim

#endif // TWOCS_SIM_GRAPH_CACHE_HH
