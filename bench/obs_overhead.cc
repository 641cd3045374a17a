/**
 * @file
 * Overhead gate for the obs span tracer: with tracing compiled in
 * but runtime-disabled (the shipping default), a hot loop whose body
 * carries a TWOCS_OBS_SPAN site must run within 1% of the identical
 * loop with no span site at all. This pins the cost contract in
 * obs/obs.hh for microsecond-scale bodies. It also prints, without
 * gating it, the absolute cost in ns of one disabled site around an
 * empty body: the number that rules span sites out of nanosecond-
 * scale loops.
 *
 * Methodology: min-of-reps on both variants (min is the standard
 * noise-robust statistic for microbenches), with a few whole-trial
 * retries so a background scheduling blip cannot fail the gate.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hh"
#include "obs/obs.hh"

using namespace twocs;

namespace {

/** ~1 us of un-optimizable floating-point work. */
double
workUnit(double seed)
{
    double acc = seed;
    for (int i = 0; i < 400; ++i)
        acc = acc * 1.0000001 + 1e-9;
    return acc;
}

volatile double g_sink = 0.0;
volatile int g_tick = 0;

double
loopEmptyPlain(int iterations)
{
    for (int i = 0; i < iterations; ++i)
        g_tick = i;
    return 0.0;
}

double
loopEmptyWithSpanSites(int iterations)
{
    for (int i = 0; i < iterations; ++i) {
        TWOCS_OBS_SPAN(obs::Category::Bench, "obs-overhead-empty");
        g_tick = i;
    }
    return 0.0;
}

double
loopPlain(int iterations)
{
    double acc = 0.0;
    for (int i = 0; i < iterations; ++i)
        acc += workUnit(static_cast<double>(i));
    return acc;
}

double
loopWithSpanSites(int iterations)
{
    double acc = 0.0;
    for (int i = 0; i < iterations; ++i) {
        TWOCS_OBS_SPAN(obs::Category::Bench, "obs-overhead-unit");
        acc += workUnit(static_cast<double>(i));
    }
    return acc;
}

/** Best-of-`reps` wall time of `fn(iterations)` in seconds. */
template <typename Fn>
double
minSeconds(Fn fn, int iterations, int reps)
{
    using Clock = std::chrono::steady_clock;
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        g_sink = g_sink + fn(iterations);
        const double s =
            std::chrono::duration<double>(Clock::now() - start)
                .count();
        best = std::min(best, s);
    }
    return best;
}

} // namespace

int
main()
{
    bench::banner("obs overhead",
                  "disabled span sites must cost < 1% of a hot loop");

    obs::Tracer::disable();
    const int iterations = 20000;
    const int reps = 11;
    const double limit = 1.01;

    double ratio = 1e300;
    for (int attempt = 0; attempt < 3 && ratio >= limit; ++attempt) {
        // Alternate which variant runs first on each attempt, so
        // drift in machine load cannot systematically favor either
        // side.
        double with_spans = 0.0, plain = 0.0;
        if (attempt % 2 == 0) {
            with_spans = minSeconds(loopWithSpanSites, iterations, reps);
            plain = minSeconds(loopPlain, iterations, reps);
        } else {
            plain = minSeconds(loopPlain, iterations, reps);
            with_spans = minSeconds(loopWithSpanSites, iterations, reps);
        }
        ratio = with_spans / plain;
        std::printf("attempt %d: plain %.3f ms, with spans %.3f ms, "
                    "ratio %.4f\n",
                    attempt, plain * 1e3, with_spans * 1e3, ratio);
    }

    // Min-of-reps on both empty loops; the difference is the site.
    const int empty_iterations = 1000000;
    const double site_ns =
        (minSeconds(loopEmptyWithSpanSites, empty_iterations, reps) -
         minSeconds(loopEmptyPlain, empty_iterations, reps)) /
        empty_iterations * 1e9;
    std::printf("disabled span site on an empty body: %.2f ns\n",
                site_ns);

    const bool ok = bench::checkClaim(
        "runtime-disabled span sites add < 1% to a hot loop",
        ratio < limit);
    if (!ok) {
        std::fprintf(stderr,
                     "error: disabled-tracing overhead %.2f%% exceeds "
                     "the 1%% contract\n",
                     (ratio - 1.0) * 100.0);
        return 1;
    }
    return 0;
}
