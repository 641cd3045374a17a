#include "parallel_for.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hh"

namespace twocs::exec {

namespace {

struct Engine
{
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t numChunks = 0;
    /** The next unclaimed chunk index. */
    std::atomic<std::size_t> next{ 0 };
    std::mutex errorMutex;
    std::exception_ptr firstError;

    detail::ChunkBody body = nullptr;
    void *ctx = nullptr;

    /** Claim and run chunks until none is left. Chunk k covers
     *  [k*grain, min((k+1)*grain, n)) whichever worker claims it. A
     *  relaxed claim suffices: the chunks are disjoint, and the joins
     *  publish every body write to the caller. */
    void workerLoop()
    {
        while (true) {
            const std::size_t k =
                next.fetch_add(1, std::memory_order_relaxed);
            if (k >= numChunks)
                return;
            try {
                body(ctx, k * grain, std::min((k + 1) * grain, n));
            } catch (...) {
                const std::lock_guard lock(errorMutex);
                if (firstError == nullptr)
                    firstError = std::current_exception();
            }
        }
    }
};

} // namespace

int
defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace detail {

std::size_t
defaultGrain(std::size_t n, int jobs)
{
    // ~4 chunks per worker: enough slack that a worker that finishes
    // early claims a straggler's share, coarse enough that the cursor
    // is touched only a few times per worker.
    const std::size_t workers =
        static_cast<std::size_t>(std::max(jobs, 1));
    return std::max<std::size_t>(1, n / (4 * workers));
}

void
parallelForImpl(std::size_t n, const ParallelForOptions &options,
                ChunkBody chunk_body, void *ctx)
{
    if (n == 0)
        return;

    const int jobs = std::max(
        1, std::min<int>(options.jobs <= 0 ? defaultThreads()
                                           : options.jobs,
                         static_cast<int>(std::min<std::size_t>(
                             n, 1u << 16))));
    const std::size_t grain =
        options.grain == 0 ? defaultGrain(n, jobs)
                           : std::max<std::size_t>(1, options.grain);

    // One umbrella span per call on every path — including the
    // serial one — so per-label span counts are jobs-invariant.
    TWOCS_OBS_SPAN(obs::Category::Exec, "exec.parallel_for",
                   [n, grain, jobs] {
                       return "n=" + std::to_string(n) +
                              " grain=" + std::to_string(grain) +
                              " jobs=" + std::to_string(jobs);
                   });

    if (jobs == 1) {
        // Degenerate case: the serial loop, no machinery at all.
        chunk_body(ctx, 0, n);
        return;
    }

    Engine engine;
    engine.n = n;
    engine.grain = grain;
    engine.numChunks = n / grain + (n % grain != 0 ? 1 : 0);
    engine.body = chunk_body;
    engine.ctx = ctx;

    // No helper is started that could never claim a chunk.
    const std::size_t workers = std::min<std::size_t>(
        static_cast<std::size_t>(jobs), engine.numChunks);
    {
        std::vector<std::jthread> helpers;
        helpers.reserve(workers - 1);
        for (std::size_t w = 1; w < workers; ++w) {
            helpers.emplace_back([&engine, w] {
                if (obs::Tracer::mask() != 0) {
                    obs::Tracer::setThreadName(
                        "exec.worker-" + std::to_string(w));
                }
                engine.workerLoop();
            });
        }
        // The calling thread is worker 0; the helpers join here.
        engine.workerLoop();
    }

    if (engine.firstError != nullptr)
        std::rethrow_exception(engine.firstError);
}

} // namespace detail

} // namespace twocs::exec
