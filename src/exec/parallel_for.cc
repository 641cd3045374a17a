#include "parallel_for.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hh"

namespace twocs::exec {

namespace {

/** Seed of the per-worker victim-selection PRNG. Fixed so a given
 *  (n, grain, jobs) always probes victims in the same order —
 *  reports and span counts stay reproducible. */
constexpr std::uint64_t kVictimSeed = 0x7c05c0de5eedULL;

/** One contiguous slice of the index range. */
struct Chunk
{
    std::size_t begin = 0;
    std::size_t end = 0;
};

/**
 * A Chase–Lev-style work-stealing deque over a fixed chunk array.
 *
 * All chunks are dealt before the workers start and the array is
 * never resized, which removes the hard parts of the classic
 * algorithm (growth, index wraparound): only `top_` and `bottom_`
 * move. The owner pops LIFO from the bottom; thieves take FIFO from
 * the top via CAS; owner and thief race only on the final element,
 * where both go through the CAS on `top_`. All accesses are seq_cst
 * — chunk dispatch is amortized over `grain` body invocations, so
 * clarity beats the relaxed-fence micro-optimization.
 */
class ChunkDeque
{
  public:
    void init(std::vector<Chunk> chunks)
    {
        chunks_ = std::move(chunks);
        top_.store(0);
        bottom_.store(static_cast<std::int64_t>(chunks_.size()));
    }

    /** Owner-only pop from the bottom. */
    bool popBottom(Chunk &out)
    {
        const std::int64_t b = bottom_.load() - 1;
        bottom_.store(b);
        std::int64_t t = top_.load();
        if (t > b) {
            bottom_.store(b + 1); // deque was empty; undo
            return false;
        }
        out = chunks_[static_cast<std::size_t>(b)];
        if (t == b) {
            // Final element: settle the race with thieves on top_.
            const bool won = top_.compare_exchange_strong(t, t + 1);
            bottom_.store(b + 1);
            return won;
        }
        return true;
    }

    /** Thief-side steal from the top. */
    bool steal(Chunk &out)
    {
        std::int64_t t = top_.load();
        const std::int64_t b = bottom_.load();
        if (t >= b)
            return false;
        // The array is immutable, so reading before the CAS is safe;
        // a lost CAS simply discards the copy.
        out = chunks_[static_cast<std::size_t>(t)];
        return top_.compare_exchange_strong(t, t + 1);
    }

  private:
    std::vector<Chunk> chunks_;
    std::atomic<std::int64_t> top_{ 0 };
    std::atomic<std::int64_t> bottom_{ 0 };
};

/** splitmix64: the stream each worker draws victim indices from. */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

struct Engine
{
    std::vector<ChunkDeque> deques;
    std::atomic<std::size_t> remaining{ 0 };
    std::mutex errorMutex;
    std::exception_ptr firstError;

    detail::ChunkBody body = nullptr;
    void *ctx = nullptr;

    void execute(const Chunk &chunk)
    {
        try {
            body(ctx, chunk.begin, chunk.end);
        } catch (...) {
            const std::lock_guard lock(errorMutex);
            if (firstError == nullptr)
                firstError = std::current_exception();
        }
        remaining.fetch_sub(1, std::memory_order_acq_rel);
    }

    void workerLoop(std::size_t self)
    {
        ChunkDeque &own = deques[self];
        std::uint64_t rng =
            kVictimSeed + 0x9e3779b97f4a7c15ULL * (self + 1);
        Chunk chunk;
        while (remaining.load(std::memory_order_acquire) > 0) {
            if (own.popBottom(chunk)) {
                execute(chunk);
                continue;
            }
            // Own deque dry: probe victims in the order this
            // worker's private PRNG stream dictates.
            bool stole = false;
            const std::size_t workers = deques.size();
            for (std::size_t probe = 0; probe < workers; ++probe) {
                const std::size_t victim =
                    splitmix64(rng) % workers;
                if (victim == self)
                    continue;
                if (deques[victim].steal(chunk)) {
                    execute(chunk);
                    stole = true;
                    break;
                }
            }
            if (!stole && remaining.load(std::memory_order_acquire) >
                              0) {
                // Every probe missed: straggling chunks are still in
                // flight on other workers. Yield rather than spin.
                std::this_thread::yield();
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
    // ~4 chunks per worker: enough slack that a straggler's deque is
    // worth raiding, coarse enough that deque traffic is amortized
    // over many body invocations.
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
    engine.body = chunk_body;
    engine.ctx = ctx;

    // Deal the chunks round-robin before any worker starts. Chunk k
    // covers [k*grain, min((k+1)*grain, n)) and lands on worker
    // k % jobs, so ownership is a pure function of (n, grain, jobs).
    const std::size_t num_chunks = (n + grain - 1) / grain;
    const std::size_t workers = static_cast<std::size_t>(jobs);
    std::vector<std::vector<Chunk>> dealt(workers);
    for (std::size_t w = 0; w < workers; ++w)
        dealt[w].reserve(num_chunks / workers + 1);
    for (std::size_t k = 0; k < num_chunks; ++k) {
        dealt[k % workers].push_back(
            { k * grain, std::min((k + 1) * grain, n) });
    }
    engine.deques = std::vector<ChunkDeque>(workers);
    for (std::size_t w = 0; w < workers; ++w)
        engine.deques[w].init(std::move(dealt[w]));
    engine.remaining.store(num_chunks, std::memory_order_release);

    {
        std::vector<std::jthread> helpers;
        helpers.reserve(workers - 1);
        for (std::size_t w = 1; w < workers; ++w) {
            helpers.emplace_back([&engine, w] {
#ifndef TWOCS_OBS_DISABLE
                if (obs::Tracer::mask() != 0) {
                    obs::Tracer::setThreadName(
                        "exec.steal-" + std::to_string(w));
                }
#endif
                engine.workerLoop(w);
            });
        }
        // The calling thread is worker 0.
        engine.workerLoop(0);
        // jthreads join here; workerLoop only returns once every
        // chunk has completed, so joining is prompt.
    }

    if (engine.firstError != nullptr)
        std::rethrow_exception(engine.firstError);
}

} // namespace detail

} // namespace twocs::exec
