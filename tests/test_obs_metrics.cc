/**
 * @file
 * Tests for the obs metrics registry: the log-bucket histogram's
 * error bound against the exact nearest-rank percentile, merge()
 * against recording everything into one registry, heap use that does
 * not grow with the number of samples, and the JSON layout shared by
 * `--metrics` and `--report`.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <malloc.h>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace twocs {
namespace {

/** A seeded latency-like sample: lognormal around 50 µs. */
std::vector<double>
latencySample(std::size_t n, unsigned seed)
{
    std::mt19937_64 rng(seed);
    std::lognormal_distribution<double> dist(std::log(50e-6), 1.0);
    std::vector<double> xs(n);
    for (double &x : xs)
        x = dist(rng);
    return xs;
}

TEST(ObsMetrics, HistogramPercentilesStayWithinOneBucket)
{
    const std::vector<double> xs = latencySample(20000, 7);
    obs::Histogram h;
    for (const double x : xs)
        h.record(x);
    ASSERT_EQ(h.count(), xs.size());
    for (const double q : { 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999 }) {
        // The estimate shares the exact sample's bucket, and a bucket
        // is at most 1/16 of its lower bound wide.
        const double exact = percentile(xs, q);
        EXPECT_LE(std::abs(h.percentile(q) - exact), exact / 16)
            << "q=" << q;
    }
    // The ends are the exact min and max.
    EXPECT_EQ(h.percentile(0.0), percentile(xs, 0.0));
    EXPECT_EQ(h.percentile(1.0), percentile(xs, 1.0));
}

TEST(ObsMetrics, HistogramClampsOutOfRangeSamples)
{
    // One sample is every percentile; samples outside 1 ns .. 1024 s
    // share the end buckets but keep exact ends.
    obs::Histogram one;
    one.record(3.7e-4);
    for (const double q : { 0.0, 0.5, 0.99, 1.0 })
        EXPECT_EQ(one.percentile(q), 3.7e-4);
    EXPECT_EQ(obs::Histogram().percentile(0.5), 0.0);
    obs::Histogram wide;
    for (const double x : { 0.0, 1e-12, 1e-12, 5e3, 5e3, 1e9 })
        wide.record(x);
    EXPECT_EQ(wide.percentile(0.0), 0.0);
    EXPECT_EQ(wide.percentile(1.0), 1e9);
    EXPECT_GE(wide.percentile(0.3), 0.0);
    EXPECT_LT(wide.percentile(0.3), 1e-9);
    EXPECT_GT(wide.percentile(0.7), 1000.0);
    EXPECT_LE(wide.percentile(0.7), 1e9);
}

/** A registry holding every entry kind. */
obs::Metrics
declared()
{
    obs::Metrics m;
    m.counter("requests");
    m.counter("hits");
    m.ratio("hit_rate", "hits", { "requests" });
    m.gauge("depth");
    m.histogram("latency_seconds");
    m.section("cache").counter("evictions");
    m.list("rows");
    m.tally("sizes", "size");
    return m;
}

void
recordInto(obs::Metrics &m, double latency, std::uint64_t i)
{
    m.counter("requests").add();
    if (i % 3 == 0)
        m.counter("hits").add();
    m.gauge("depth").observe(i % 17);
    m.histogram("latency_seconds").record(latency);
    m.section("cache").counter("evictions").add(i % 2);
    ++m.tally("sizes", "size")[1 + i % 4];
}

std::string
jsonOf(const obs::Metrics &m)
{
    std::ostringstream os;
    m.writeJson(os);
    return os.str();
}

TEST(ObsMetrics, MergeEqualsRecordingIntoOne)
{
    const std::vector<double> xs = latencySample(3000, 11);
    obs::Metrics whole = declared();
    obs::Metrics parts[3] = { declared(), declared(), declared() };
    for (std::size_t i = 0; i < xs.size(); ++i) {
        recordInto(whole, xs[i], i);
        recordInto(parts[i % 3], xs[i], i);
    }
    obs::Metrics merged = declared();
    for (const obs::Metrics &part : parts)
        merged.merge(part);
    EXPECT_EQ(jsonOf(merged), jsonOf(whole));
    EXPECT_EQ(merged.value("requests"), xs.size());
    EXPECT_EQ(merged.value("depth"), 16u);

    // Entries the target lacks are appended in the source's order;
    // list rows concatenate.
    obs::Metrics sparse;
    sparse.counter("extra").add(2);
    sparse.list("rows").emplace_back().counter("shard").add(4);
    obs::Metrics target = declared();
    target.merge(sparse);
    target.merge(sparse);
    const std::string json = jsonOf(target);
    EXPECT_EQ(target.value("extra"), 4u);
    EXPECT_NE(json.find("\"rows\": [\n    { \"shard\": 4 },\n"
                        "    { \"shard\": 4 }\n  ]"),
              std::string::npos)
        << json;
    EXPECT_GT(json.find("\"extra\": 4"), json.find("\"sizes\""));
}

TEST(ObsMetrics, StorageDoesNotGrowWithSamples)
{
    // Heap in use after one round of events and after a million: the
    // registry holds no per-event storage.
    obs::Metrics m = declared();
    for (std::uint64_t i = 0; i < 4; ++i)
        recordInto(m, 1e-5, i);
    const std::size_t after_few = ::mallinfo2().uordblks;
    for (std::uint64_t i = 4; i < 1'000'000; ++i)
        recordInto(m, 1e-6 * static_cast<double>(1 + i % 5000), i);
    EXPECT_EQ(::mallinfo2().uordblks, after_few);
    EXPECT_EQ(m.value("requests"), 1'000'000u);
    EXPECT_EQ(m.findHistogram("latency_seconds")->count(), 1'000'000u);
}

TEST(ObsMetrics, JsonLayoutIsPinned)
{
    obs::Metrics m = declared();
    m.counter("requests").add(4);
    m.counter("hits").add(1);
    m.gauge("depth").observe(3);
    m.histogram("latency_seconds").record(0.5);
    m.tally("sizes", "size")[2] += 2;
    const std::string json = jsonOf(m);
    EXPECT_EQ(json, "{\n"
                    "  \"requests\": 4,\n"
                    "  \"hits\": 1,\n"
                    "  \"hit_rate\": 0.25,\n"
                    "  \"depth\": 3,\n"
                    "  \"latency_seconds_p50\": 0.5,\n"
                    "  \"latency_seconds_p95\": 0.5,\n"
                    "  \"latency_seconds_p99\": 0.5,\n"
                    "  \"latency_seconds_max\": 0.5,\n"
                    "  \"cache\": { \"evictions\": 0 },\n"
                    "  \"sizes\": [\n"
                    "    { \"size\": 2, \"count\": 2 }\n"
                    "  ]\n"
                    "}\n");
    json::validate(json);
    EXPECT_EQ(jsonOf(obs::Metrics()), "{}\n");
}

TEST(ObsMetrics, RedeclaringANameAsAnotherKindPanics)
{
    obs::Metrics m;
    m.counter("requests");
    EXPECT_THROW(m.gauge("requests"), PanicError);
    obs::Metrics other;
    other.gauge("requests");
    EXPECT_THROW(m.merge(other), PanicError);
}

} // namespace
} // namespace twocs
