#include "metrics.hh"

#include <algorithm>
#include <cmath>

#include "util/json.hh"
#include "util/logging.hh"

namespace twocs::obs {

JsonWriter &
JsonWriter::raw(std::string_view key, std::string value)
{
    members_.emplace_back(json::quote(key), std::move(value));
    return *this;
}

JsonWriter &
JsonWriter::member(std::string_view key, double value)
{
    return raw(key, json::number(value));
}

JsonWriter &
JsonWriter::member(std::string_view key, std::string_view text)
{
    return raw(key, json::quote(text));
}

JsonWriter &
JsonWriter::member(std::string_view key, const JsonWriter &object)
{
    return raw(key, object.inlineText());
}

JsonWriter &
JsonWriter::member(std::string_view key,
                   const std::vector<JsonWriter> &rows)
{
    std::string value = "[";
    for (std::size_t i = 0; i < rows.size(); ++i)
        value += (i == 0 ? "\n    " : ",\n    ") + rows[i].inlineText();
    return raw(key, value + (rows.empty() ? "]" : "\n  ]"));
}

std::string
JsonWriter::inlineText() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < members_.size(); ++i)
        out += (i == 0 ? " " : ", ") + members_[i].first + ": " +
               members_[i].second;
    return out + (members_.empty() ? "}" : " }");
}

void
JsonWriter::write(std::ostream &os) const
{
    os << "{";
    for (std::size_t i = 0; i < members_.size(); ++i)
        os << (i == 0 ? "\n  " : ",\n  ") << members_[i].first << ": "
           << members_[i].second;
    os << (members_.empty() ? "}\n" : "\n}\n");
}

namespace {

constexpr int kSubBuckets = 16;
constexpr int kMinExponent = -30;
constexpr int kOctaves = 40;

std::size_t
bucketOf(double seconds)
{
    if (!(seconds >= std::ldexp(1.0, kMinExponent)))
        return 0; // below the range, zero and NaN
    int exponent = 0;
    // seconds = mantissa * 2^exponent, mantissa in [0.5, 1).
    const double mantissa = std::frexp(seconds, &exponent);
    const int octave = exponent - 1 - kMinExponent;
    if (octave >= kOctaves)
        return kOctaves * kSubBuckets - 1;
    return static_cast<std::size_t>(octave * kSubBuckets) +
           static_cast<std::size_t>((mantissa * 2 - 1) * kSubBuckets);
}

double
bucketLower(std::size_t bucket)
{
    const auto octave = static_cast<int>(bucket / kSubBuckets);
    const auto sub = static_cast<double>(bucket % kSubBuckets);
    return std::ldexp(1.0 + sub / kSubBuckets, octave + kMinExponent);
}

} // namespace

void
Histogram::record(double seconds)
{
    buckets_.resize(kOctaves * kSubBuckets);
    ++buckets_[bucketOf(seconds)];
    min_ = count_ == 0 ? seconds : std::min(min_, seconds);
    max_ = count_ == 0 ? seconds : std::max(max_, seconds);
    ++count_;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    buckets_.resize(other.buckets_.size());
    for (std::size_t b = 0; b < buckets_.size(); ++b)
        buckets_[b] += other.buckets_[b];
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
    count_ += other.count_;
}

double
Histogram::percentile(double q) const
{
    if (count_ == 0)
        return 0.0;
    const std::uint64_t rank = std::min(
        static_cast<std::uint64_t>(
            q * static_cast<double>(count_ - 1) + 0.5),
        count_ - 1);
    if (rank == 0 || rank == count_ - 1)
        return rank == 0 ? min_ : max_;
    std::uint64_t seen = 0;
    std::size_t b = 0;
    while ((seen += buckets_[b]) <= rank)
        ++b;
    return std::clamp((bucketLower(b) + bucketLower(b + 1)) / 2, min_,
                      max_);
}

enum class Metrics::Kind
{
    Counter, Gauge, Histogram, Tally, Ratio, Section, List
};

struct Metrics::Entry
{
    std::string name;
    Kind kind;
    Counter count; //!< Counter, Gauge
    Histogram histogram;
    std::vector<double> quantiles; //!< Histogram
    Tally tally;
    /** Tally: its value key; Ratio: numerator, then denominators. */
    std::vector<std::string> keys;
    /** Section: the one nested registry; List: the rows. */
    std::vector<Metrics> children;
};

Metrics::Metrics() = default;
Metrics::~Metrics() = default;

Metrics::Metrics(const Metrics &other)
{
    merge(other);
}

const Metrics::Entry *
Metrics::find(std::string_view name, Kind kind) const
{
    for (const auto &entry : entries_) {
        if (entry->name == name)
            return entry->kind == kind ? entry.get() : nullptr;
    }
    return nullptr;
}

Metrics::Entry &
Metrics::declare(std::string_view name, Kind kind)
{
    for (const auto &entry : entries_) {
        if (entry->name != name)
            continue;
        panicIf(entry->kind != kind, "metric '", name,
                "' is already declared as another kind");
        return *entry;
    }
    entries_.push_back(std::make_unique<Entry>());
    Entry &entry = *entries_.back();
    entry.name = name;
    entry.kind = kind;
    if (kind == Kind::Section)
        entry.children.resize(1);
    return entry;
}

Counter &
Metrics::counter(std::string_view name)
{
    return declare(name, Kind::Counter).count;
}

Counter &
Metrics::gauge(std::string_view name)
{
    return declare(name, Kind::Gauge).count;
}

Histogram &
Metrics::histogram(std::string_view name,
                   std::initializer_list<double> quantiles)
{
    Entry &entry = declare(name, Kind::Histogram);
    if (entry.quantiles.empty())
        entry.quantiles = quantiles;
    return entry.histogram;
}

Tally &
Metrics::tally(std::string_view name, std::string_view valueKey)
{
    Entry &entry = declare(name, Kind::Tally);
    entry.keys = { std::string(valueKey) };
    return entry.tally;
}

void
Metrics::ratio(std::string_view name, std::string_view numerator,
               std::initializer_list<std::string_view> denominators)
{
    Entry &entry = declare(name, Kind::Ratio);
    entry.keys = { std::string(numerator) };
    entry.keys.insert(entry.keys.end(), denominators.begin(),
                      denominators.end());
}

Metrics &
Metrics::section(std::string_view name)
{
    return declare(name, Kind::Section).children.front();
}

std::vector<Metrics> &
Metrics::list(std::string_view name)
{
    return declare(name, Kind::List).children;
}

std::uint64_t
Metrics::value(std::string_view name) const
{
    const Entry *entry = find(name, Kind::Counter);
    if (entry == nullptr)
        entry = find(name, Kind::Gauge);
    return entry == nullptr ? 0 : entry->count.value();
}

double
Metrics::ratioValue(std::string_view name) const
{
    const Entry *entry = find(name, Kind::Ratio);
    std::uint64_t denominator = 0;
    for (std::size_t i = 1; entry != nullptr && i < entry->keys.size();
         ++i)
        denominator += value(entry->keys[i]);
    return denominator == 0
               ? 0.0
               : static_cast<double>(value(entry->keys.front())) /
                     static_cast<double>(denominator);
}

const Histogram *
Metrics::findHistogram(std::string_view name) const
{
    const Entry *entry = find(name, Kind::Histogram);
    return entry == nullptr ? nullptr : &entry->histogram;
}

void
Metrics::merge(const Metrics &other)
{
    // A kind's unused payload fields are empty, so folding every field
    // folds just the ones the kind uses.
    for (const auto &from : other.entries_) {
        Entry &into = declare(from->name, from->kind);
        if (into.quantiles.empty())
            into.quantiles = from->quantiles;
        into.keys = from->keys;
        if (from->kind == Kind::Gauge)
            into.count.observe(from->count.value());
        else
            into.count.add(from->count.value());
        into.histogram.merge(from->histogram);
        for (const auto &[v, n] : from->tally)
            into.tally[v] += n;
        if (from->kind == Kind::Section)
            into.children.front().merge(from->children.front());
        else
            for (const Metrics &row : from->children)
                into.children.push_back(row);
    }
}

JsonWriter
Metrics::toJson() const
{
    JsonWriter out;
    for (const auto &entry : entries_) {
        const std::string &name = entry->name;
        std::vector<JsonWriter> rows;
        for (const auto &[v, n] : entry->tally)
            rows.push_back(JsonWriter()
                               .member(entry->keys.front(), v)
                               .member("count", n));
        for (const Metrics &row : entry->children)
            rows.push_back(row.toJson());
        switch (entry->kind) {
          case Kind::Counter:
          case Kind::Gauge:
            out.member(name, entry->count.value());
            break;
          case Kind::Histogram:
            for (const double q : entry->quantiles) {
                const std::string suffix =
                    q < 1.0 ? "_p" + std::to_string(std::lround(q * 100))
                            : "_max";
                out.member(name + suffix, entry->histogram.percentile(q));
            }
            break;
          case Kind::Ratio:
            out.member(name, ratioValue(name));
            break;
          case Kind::Section:
            out.member(name, rows.front());
            break;
          case Kind::Tally:
          case Kind::List:
            if (!rows.empty() || entry->kind == Kind::Tally)
                out.member(name, rows);
            break;
        }
    }
    return out;
}

} // namespace twocs::obs
