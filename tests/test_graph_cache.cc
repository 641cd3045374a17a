/**
 * @file
 * Tests for the process-wide compiled-graph cache (sim/graph_cache.hh):
 * key equality vs shard hashing, LRU eviction order, concurrent
 * getOrCompile stress, and the figure-12 DES study (`12-des`) vs an
 * uncached per-point CaseStudy::run at several --jobs, cache on and
 * forced-miss.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/case_study.hh"
#include "core/sweep.hh"
#include "sim/engine.hh"
#include "sim/graph_cache.hh"
#include "util/logging.hh"

#include "test_common.hh"

namespace twocs::sim {
namespace {

/** A serial chain of `n` unit tasks on one resource. */
std::shared_ptr<const GraphTemplate>
buildChain(int n)
{
    EventSimulator des;
    const ResourceId r = des.addResource("r");
    TaskId prev = InvalidTask;
    for (int i = 0; i < n; ++i)
        prev = des.addTask("t", "comp", r, 1.0,
                           prev == InvalidTask
                               ? std::vector<TaskId>{}
                               : std::vector<TaskId>{ prev });
    return des.compile();
}

/** Keys that all land in one shard, so LRU order is observable. */
std::vector<std::string>
sameShardKeys(std::size_t count)
{
    std::vector<std::string> keys;
    const std::size_t shard = GraphCache::shardIndex("seed-key");
    for (int i = 0; keys.size() < count; ++i) {
        std::string k = "candidate-" + std::to_string(i);
        if (GraphCache::shardIndex(k) == shard)
            keys.push_back(std::move(k));
    }
    return keys;
}

TEST(GraphCache, SameShardKeysNeverAlias)
{
    // The hash only picks the shard; entries are matched by full
    // string equality, so keys that collide into one shard must keep
    // their own graphs.
    GraphCache cache(64);
    const std::vector<std::string> keys = sameShardKeys(4);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(GraphCache::shardIndex(keys[i]),
                  GraphCache::shardIndex(keys[0]));
        cache.getOrCompile(keys[i], [&] {
            GraphCache::Compiled out;
            out.graph = buildChain(static_cast<int>(i) + 1);
            return out;
        });
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const GraphCache::Compiled hit =
            cache.getOrCompile(keys[i], [&]() -> GraphCache::Compiled {
                ADD_FAILURE() << "unexpected recompile of " << keys[i];
                GraphCache::Compiled out;
                out.graph = buildChain(1);
                return out;
            });
        EXPECT_EQ(hit.graph->numTasks(), i + 1);
    }
    const GraphCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, keys.size());
    EXPECT_EQ(stats.hits, keys.size());
    EXPECT_EQ(stats.entries, keys.size());
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(GraphCache, EvictsLeastRecentlyUsedFirst)
{
    // Total capacity 16 = 2 entries per shard. Fill one shard with
    // A, B; touch A; insert C. The LRU victim must be B: A and C hit
    // without recompiling, B compiles again.
    GraphCache cache(16);
    const std::vector<std::string> keys = sameShardKeys(3);
    const std::string &a = keys[0], &b = keys[1], &c = keys[2];

    int compiles = 0;
    const auto compileChain = [&](int n) {
        return [&compiles, n] {
            ++compiles;
            GraphCache::Compiled out;
            out.graph = buildChain(n);
            return out;
        };
    };

    cache.getOrCompile(a, compileChain(1));
    cache.getOrCompile(b, compileChain(2));
    EXPECT_EQ(compiles, 2);
    cache.getOrCompile(a, compileChain(1)); // A is now most recent
    EXPECT_EQ(compiles, 2);
    cache.getOrCompile(c, compileChain(3)); // evicts B, not A
    EXPECT_EQ(compiles, 3);
    EXPECT_EQ(cache.stats().evictions, 1u);

    cache.getOrCompile(a, compileChain(1));
    cache.getOrCompile(c, compileChain(3));
    EXPECT_EQ(compiles, 3) << "A and C should both still be resident";
    cache.getOrCompile(b, compileChain(2));
    EXPECT_EQ(compiles, 4) << "B was the LRU victim";
}

TEST(GraphCache, ZeroCapacityForcesMisses)
{
    GraphCache cache(0);
    int compiles = 0;
    for (int i = 0; i < 3; ++i) {
        const GraphCache::Compiled c =
            cache.getOrCompile("same-key", [&] {
                ++compiles;
                GraphCache::Compiled out;
                out.graph = buildChain(2);
                return out;
            });
        ASSERT_NE(c.graph, nullptr);
    }
    EXPECT_EQ(compiles, 3);
    const GraphCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.entries, 0u);
}

TEST(GraphCache, AuxRoundTripsThroughTypeErasure)
{
    GraphCache cache(8);
    const GraphCache::Compiled c =
        cache.getOrCompile("with-aux", [] {
            GraphCache::Compiled out;
            out.graph = buildChain(1);
            out.aux = std::make_shared<std::vector<int>>(
                std::vector<int>{ 7, 11 });
            return out;
        });
    const std::shared_ptr<const std::vector<int>> aux =
        GraphCache::auxAs<std::vector<int>>(c);
    ASSERT_NE(aux, nullptr);
    EXPECT_EQ((*aux)[1], 11);
}

TEST(GraphCacheConcurrency, StressSharedInstanceUnderEviction)
{
    // Many threads hammer a deliberately tiny cache over a key set
    // larger than its capacity: every lookup must come back with the
    // right graph (size == key index + 1) whether it hit, missed, or
    // raced a duplicate compile, and the counters must account for
    // every call.
    constexpr int kThreads = 8;
    constexpr int kIters = 200;
    constexpr std::size_t kKeys = 12;
    GraphCache cache(8); // 1 entry per shard: constant eviction
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < kKeys; ++i)
        keys.push_back("stress-" + std::to_string(i));

    std::atomic<int> mismatches{ 0 };
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                const std::size_t k =
                    static_cast<std::size_t>(i * (t + 1)) % kKeys;
                const GraphCache::Compiled c =
                    cache.getOrCompile(keys[k], [&] {
                        GraphCache::Compiled out;
                        out.graph =
                            buildChain(static_cast<int>(k) + 1);
                        return out;
                    });
                if (c.graph == nullptr ||
                    c.graph->numTasks() != k + 1)
                    ++mismatches;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(mismatches.load(), 0);
    const GraphCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_LE(stats.entries, 8u);
}

/** Restore the shared cache exactly as a test found it. */
class SharedCacheGuard
{
  public:
    SharedCacheGuard() : capacity_(GraphCache::instance().capacity())
    {
    }
    ~SharedCacheGuard()
    {
        GraphCache::instance().setCapacity(capacity_);
        GraphCache::instance().clear();
    }

  private:
    std::size_t capacity_;
};

TEST(GraphCacheSweep, EnginesBitIdenticalAcrossJobsAndCapacity)
{
    // The 12-des study resolves each cell's graph through the shared
    // cache; it must agree bit for bit with an uncached CaseStudy::run
    // per point, at --jobs 1 and 4, with the cache warm and disabled
    // (forced miss). A smaller flop-scale axis keeps the oracle cheap.
    SharedCacheGuard guard;
    const core::SystemConfig sys = test::paperSystem();
    const std::vector<core::EvolutionConfig> configs =
        core::figure12Configs({ 1.0, 2.0 });

    GraphCache::instance().setCapacity(0);
    const core::CaseStudy study;
    std::vector<core::CaseStudyResult> oracle;
    for (const core::EvolutionConfig &c : configs) {
        core::CaseStudyConfig cfg;
        cfg.hidden = c.hidden;
        cfg.seqLen = c.seqLen;
        cfg.tpDegree = static_cast<int>(c.tpDegree);
        cfg.system = sys;
        cfg.system.flopScale = sys.flopScale * c.flopScale;
        oracle.push_back(study.run(cfg));
        EXPECT_EQ(oracle.back().makespan,
                  study.buildSchedule(cfg).makespan());
    }

    for (const std::size_t capacity :
         { GraphCache::kDefaultCapacity, std::size_t{ 0 } }) {
        GraphCache::instance().setCapacity(capacity);
        GraphCache::instance().clear();
        for (const int jobs : { 1, 4 }) {
            exec::RunnerOptions runner;
            runner.jobs = jobs;
            const std::string what = "capacity " +
                                     std::to_string(capacity) +
                                     " jobs " + std::to_string(jobs);
            const std::vector<core::SimulatedEvolutionPoint> points =
                core::runSimulatedEvolutionStudy(sys, configs, runner);
            ASSERT_EQ(points.size(), oracle.size()) << what;
            for (std::size_t i = 0; i < points.size(); ++i) {
                const core::CaseStudyResult &a = oracle[i];
                const core::CaseStudyResult &b = points[i].result;
                EXPECT_EQ(a.makespan, b.makespan) << what << " #" << i;
                EXPECT_EQ(a.computeTime, b.computeTime)
                    << what << " #" << i;
                EXPECT_EQ(a.serializedCommTime, b.serializedCommTime)
                    << what << " #" << i;
                EXPECT_EQ(a.dpCommTime, b.dpCommTime)
                    << what << " #" << i;
                EXPECT_EQ(a.dpExposedTime, b.dpExposedTime)
                    << what << " #" << i;
                EXPECT_EQ(a.overlappedCommTime, b.overlappedCommTime)
                    << what << " #" << i;
                EXPECT_EQ(points[i].config.tag, configs[i].tag)
                    << what << " #" << i;
            }
        }
    }
}

} // namespace
} // namespace twocs::sim
