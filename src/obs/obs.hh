/**
 * @file
 * Low-overhead span tracing for the twocs runtime itself.
 *
 * The paper attributes every second of an iteration to compute,
 * serialized communication or overlappable communication; this
 * module applies the same discipline to our own runtime. A Span is a
 * scoped RAII record (label, category, optional args, monotonic
 * start/duration) appended to a per-thread ring buffer; a snapshot
 * of all rings feeds the sinks in obs/sinks.hh (Chrome trace.json,
 * folded flamegraph stacks, a count/total/p50/p95 summary table).
 *
 * Cost contract:
 *  - disabled (the default): a relaxed atomic load and a branch,
 *    plus a Span that builds and destroys two empty std::strings and
 *    an opaque call that makes the enclosing loop spill its registers
 *    (label/args callables never run; bench/obs_overhead prints the
 *    ns). So: one span per pass, never one per element of a
 *    nanosecond-scale loop — sim::replay records per-tag counts;
 *  - compiled out (-DTWOCS_OBS_DISABLE): the macros expand to
 *    nothing at all;
 *  - enabled: two steady_clock reads plus one short mutex-guarded
 *    ring append per span.
 *
 * Threading contract: spans may be recorded concurrently from any
 * thread (each thread owns its ring; appends take that ring's own
 * mutex so snapshots are race-free). enable()/disable()/reset() and
 * snapshot() must be called from quiescent points — no span open on
 * another thread — which every twocs driver satisfies because
 * tracing is toggled before/after a run and workers are drained in
 * between. Span counts are deterministic at any --jobs value (the
 * instrumentation emits the same spans whether work runs inline or
 * on a pool); timestamps and durations of course are not.
 */

#ifndef TWOCS_OBS_OBS_HH
#define TWOCS_OBS_OBS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace twocs::obs {

/** Coarse subsystem buckets; combine as a bitmask to filter. */
enum class Category : unsigned
{
    Exec = 1u << 0,  //!< thread pool / sweep runner task execution
    Svc = 1u << 1,   //!< query-service batch phases and cache events
    Sim = 1u << 2,   //!< discrete-event engine runs and replays
    Comm = 1u << 3,  //!< collective simulations (ring all-reduce)
    Cli = 1u << 4,   //!< top-level CLI command handlers
    Bench = 1u << 5, //!< bench drivers
    Net = 1u << 6,   //!< network front-end (accept/read/dispatch/shed)
};

/** Mask selecting every category. */
inline constexpr unsigned kAllCategories = 0x7fu;

/** Lower-case category name ("exec", "svc", ...). */
const char *categoryName(Category category);

/**
 * Parse a comma-separated category list ("exec,svc" or "all") into a
 * bitmask; fatal() on an unknown name or an empty list.
 */
unsigned categoryMaskFromList(const std::string &list);

/** One completed span (or instant, when durNs is zero and leaf). */
struct SpanRecord
{
    std::string label;
    /** Semicolon-joined enclosing span labels ending in `label`
     *  (the folded flamegraph stack). */
    std::string path;
    /** Free-form detail string ("tasks=120"); may be empty. */
    std::string args;
    Category category = Category::Exec;
    /** Index of the recording thread's lane (stable per thread). */
    std::uint32_t lane = 0;
    /** Nanoseconds since the tracer's enable()/reset() epoch. */
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;
};

/** A copy of every recorded span, ready for the sinks. */
struct TraceSnapshot
{
    /** Sorted by (startNs, lane, path) for stable sink output. */
    std::vector<SpanRecord> spans;
    /** Lane index -> thread name ("main", "exec.worker-0", ...). */
    std::vector<std::string> laneNames;
    /** Spans lost to ring-buffer overwrite across all lanes. */
    std::uint64_t dropped = 0;
};

namespace detail {

/** Runtime category mask; zero means tracing is off. */
extern std::atomic<unsigned> traceMask;

struct LaneBuffer;

/** True when at least one of `mask`'s categories is being traced. */
inline bool
enabledFor(Category category)
{
    return (traceMask.load(std::memory_order_relaxed) &
            static_cast<unsigned>(category)) != 0u;
}

} // namespace detail

/** Static control surface of the process-wide tracer. */
class Tracer
{
  public:
    static constexpr std::size_t kDefaultRingCapacity = 1u << 16;

    /** Start recording the given categories (does not clear rings;
     *  call reset() first for a fresh trace). */
    static void enable(unsigned mask = kAllCategories);

    /** Stop recording; already-captured spans stay snapshottable. */
    static void disable();

    /** The active category mask (0 when disabled). */
    static unsigned mask();

    /** Drop every recorded span and restart the trace clock. */
    static void reset();

    /** Per-thread ring size for lanes that have not recorded yet
     *  (existing lanes keep their ring). Call before tracing. */
    static void setRingCapacity(std::size_t capacity);

    /** Name the calling thread's lane in trace output. */
    static void setThreadName(std::string name);

    /** Copy out every recorded span; see the file comment for the
     *  quiescence requirement. */
    static TraceSnapshot snapshot();

    /**
     * Deterministic label -> span count over the categories in
     * `category_mask` (durations are wall-clock noise; counts are
     * part of the determinism contract).
     */
    static std::map<std::string, std::uint64_t>
    countsByLabel(unsigned category_mask = kAllCategories);
};

/**
 * A scoped span: records [construction, destruction) into the
 * calling thread's ring when its category is enabled. Label and args
 * can be passed as lazy callables so cold sites never pay for string
 * building.
 */
class Span
{
  public:
    Span(Category category, const char *label)
    {
        if (detail::enabledFor(category))
            open(category, label, std::string());
    }

    Span(Category category, const std::string &label)
    {
        if (detail::enabledFor(category))
            open(category, label, std::string());
    }

    template <typename LabelFn,
              std::enable_if_t<std::is_invocable_r_v<std::string,
                                                     LabelFn>,
                               int> = 0>
    Span(Category category, LabelFn &&label_fn)
    {
        if (detail::enabledFor(category))
            open(category, std::forward<LabelFn>(label_fn)(),
                 std::string());
    }

    template <typename ArgsFn,
              std::enable_if_t<std::is_invocable_r_v<std::string,
                                                     ArgsFn>,
                               int> = 0>
    Span(Category category, const char *label, ArgsFn &&args_fn)
    {
        if (detail::enabledFor(category)) {
            open(category, label,
                 std::forward<ArgsFn>(args_fn)());
        }
    }

    template <typename ArgsFn,
              std::enable_if_t<std::is_invocable_r_v<std::string,
                                                     ArgsFn>,
                               int> = 0>
    Span(Category category, std::string label, ArgsFn &&args_fn)
    {
        if (detail::enabledFor(category)) {
            open(category, std::move(label),
                 std::forward<ArgsFn>(args_fn)());
        }
    }

    ~Span()
    {
        if (lane_ != nullptr)
            close();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    void open(Category category, std::string label, std::string args);
    void close();

    detail::LaneBuffer *lane_ = nullptr;
    std::string label_;
    std::string args_;
    Category category_ = Category::Exec;
    std::int64_t startNs_ = 0;
    std::uint64_t epoch_ = 0;
};

/** Record a zero-duration marker at the current stack position. */
void instant(Category category, const char *label,
             std::string args = std::string());

} // namespace twocs::obs

/**
 * TWOCS_OBS_SPAN(category, label [, argsFn]) — a scoped span that is
 * removed entirely under -DTWOCS_OBS_DISABLE.
 */
#ifdef TWOCS_OBS_DISABLE
#define TWOCS_OBS_SPAN(...) \
    do { \
    } while (false)
#define TWOCS_OBS_INSTANT(...) \
    do { \
    } while (false)
#else
#define TWOCS_OBS_CONCAT_IMPL(a, b) a##b
#define TWOCS_OBS_CONCAT(a, b) TWOCS_OBS_CONCAT_IMPL(a, b)
#define TWOCS_OBS_SPAN(...) \
    const ::twocs::obs::Span TWOCS_OBS_CONCAT(twocs_obs_span_, \
                                              __LINE__)(__VA_ARGS__)
/** Args are only evaluated when the category is being traced. */
#define TWOCS_OBS_INSTANT(category, ...) \
    do { \
        if (::twocs::obs::detail::enabledFor(category)) \
            ::twocs::obs::instant(category, __VA_ARGS__); \
    } while (false)
#endif

#endif // TWOCS_OBS_OBS_HH
