/**
 * @file
 * The runtime's one metrics registry, and the one JSON layout that it
 * and exec::RunReport write.
 *
 * A Metrics registry holds named entries in declaration order:
 * counters, high-water gauges, latency histograms, tallies of exact
 * values, ratios of counters, nested sections and lists of nested
 * rows. Its storage is fixed by the entries declared (a tally's by its
 * distinct values), never by the number of events. Counters and gauges
 * are relaxed atomics with one writer, so any thread may read them
 * mid-run; the rest is read once the writer is done. merge() adds
 * counters and tallies, keeps the larger gauge, merges histograms
 * bucket-wise and sections by name, concatenates lists, and appends
 * the entries the target lacks, in order.
 */

#ifndef TWOCS_OBS_METRICS_HH
#define TWOCS_OBS_METRICS_HH

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace twocs::obs {

/**
 * A JSON object built member by member, values rendered on insertion
 * (numbers by json::number). write() prints it one member per line;
 * as a member value it nests on one line (`{ "a": 1, "b": 2 }`), and
 * an array of them prints one object per line.
 */
class JsonWriter
{
  public:
    template <std::integral T>
    JsonWriter &member(std::string_view key, T value)
    {
        return raw(key, std::to_string(value));
    }
    JsonWriter &member(std::string_view key, double value);
    JsonWriter &member(std::string_view key, std::string_view text);
    JsonWriter &member(std::string_view key, const JsonWriter &object);
    JsonWriter &member(std::string_view key,
                       const std::vector<JsonWriter> &rows);

    std::string inlineText() const;
    void write(std::ostream &os) const;

  private:
    JsonWriter &raw(std::string_view key, std::string value);

    std::vector<std::pair<std::string, std::string>> members_;
};

/** A relaxed atomic with one writer, readable from any thread. */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &other) : value_(other.value()) {}

    void add(std::uint64_t n = 1) { set(value() + n); }
    /** Keep the larger of the value and `v` (a high-water mark). */
    void observe(std::uint64_t v) { set(std::max(value(), v)); }
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    void set(std::uint64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    std::atomic<std::uint64_t> value_{ 0 };
};

/**
 * A latency histogram over seconds with fixed storage: each power of
 * two from 2^-30 to 2^10 s (about 1 ns to 1024 s) is cut into 16 equal
 * buckets, so a bucket spans at most 1/16 (6.25%) of its lower bound;
 * samples outside the range land in the end buckets. count, min and
 * max are exact. percentile(q) takes the rank of util/stats.hh's
 * nearest-rank percentile() and returns the midpoint of that rank's
 * bucket clamped to [min, max]: exact at q = 0, at q = 1 and for one
 * sample, otherwise in the exact sample's bucket, so within 6.25% of
 * it.
 */
class Histogram
{
  public:
    void record(double seconds);
    void merge(const Histogram &other);

    std::uint64_t count() const { return count_; }
    double percentile(double q) const;

  private:
    std::vector<std::uint64_t> buckets_; //!< allocated by the first sample
    std::uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Occurrences per exact value (a small value domain). */
using Tally = std::map<std::uint64_t, std::uint64_t>;

/** The registry; see the file comment. */
class Metrics
{
  public:
    Metrics();
    ~Metrics();
    Metrics(const Metrics &other);

    /**
     * Find-or-declare an entry; references stay valid for the
     * registry's lifetime, so hot paths look a name up once. A name
     * declared as another kind is a panic.
     */
    Counter &counter(std::string_view name);
    /** A high-water mark: merge() keeps the larger value. */
    Counter &gauge(std::string_view name);
    /** Written as `<name>_p50` for q = 0.50 ... `<name>_max` for 1. */
    Histogram &histogram(std::string_view name,
                         std::initializer_list<double> quantiles = {
                             0.50, 0.95, 0.99, 1.0 });
    /** Written as `[ { "<valueKey>": v, "count": n }, ... ]`. */
    Tally &tally(std::string_view name, std::string_view valueKey);
    /** numerator / (sum of denominators), 0 when that sum is 0. */
    void ratio(std::string_view name, std::string_view numerator,
               std::initializer_list<std::string_view> denominators);
    /** A nested registry, written on one line. */
    Metrics &section(std::string_view name);
    /** Nested registries, written as an array; omitted when empty. */
    std::vector<Metrics> &list(std::string_view name);

    /** A counter's or gauge's value, a ratio's value, a histogram:
     *  0 or nullptr when `name` is not declared as that kind. */
    std::uint64_t value(std::string_view name) const;
    double ratioValue(std::string_view name) const;
    const Histogram *findHistogram(std::string_view name) const;

    void merge(const Metrics &other);

    /** The entries in declaration order, through JsonWriter. */
    JsonWriter toJson() const;
    void writeJson(std::ostream &os) const { toJson().write(os); }

  private:
    struct Entry;
    enum class Kind;

    Entry &declare(std::string_view name, Kind kind);
    const Entry *find(std::string_view name, Kind kind) const;

    std::vector<std::unique_ptr<Entry>> entries_;
};

} // namespace twocs::obs

#endif // TWOCS_OBS_METRICS_HH
