/**
 * @file
 * A chunked, work-stealing parallel index loop.
 *
 * parallelFor(n, options, body) splits the index range [0, n) into
 * contiguous chunks of ~`grain` indices, deals the chunks
 * round-robin onto per-worker Chase–Lev-style deques, and runs one
 * worker per job (the calling thread is worker 0). Each worker
 * drains its own deque LIFO from the bottom; an idle worker steals a
 * chunk FIFO from the top of a victim picked by a per-worker
 * deterministically seeded PRNG. Because every index runs exactly
 * once and writes only its own output slot, results are independent
 * of the stealing order — `--jobs 1` and `--jobs N` output stays
 * byte-identical even though the interleaving is not.
 *
 * This is the codebase's one executor: the ParallelSweepRunner maps
 * studies through it and the query service fans each batch's misses
 * out over it. No per-task std::function, no shared queue mutex, no
 * condition variables on the hot path — one heap allocation per call
 * for the chunk arrays, then only atomics.
 */

#ifndef TWOCS_EXEC_PARALLEL_FOR_HH
#define TWOCS_EXEC_PARALLEL_FOR_HH

#include <cstddef>
#include <memory>
#include <type_traits>

namespace twocs::exec {

/** hardware_concurrency() with a floor of one thread. */
int defaultThreads();

/** Knobs of one parallelFor() call. */
struct ParallelForOptions
{
    /** Workers (including the calling thread); <= 0 selects
     *  defaultThreads(). */
    int jobs = 0;
    /** Indices per chunk; 0 selects a heuristic that targets a few
     *  chunks per worker (stealing slack without per-index cost). */
    std::size_t grain = 0;
};

namespace detail {

/** Monomorphic chunk callback: run body(i) for i in [begin, end). */
using ChunkBody = void (*)(void *ctx, std::size_t begin,
                           std::size_t end);

/** Out-of-line engine; rethrows the first captured body exception
 *  (first by wall clock, not by index — callers that need an
 *  index-deterministic failure catch inside their body, as
 *  ParallelSweepRunner does). */
void parallelForImpl(std::size_t n, const ParallelForOptions &options,
                     ChunkBody chunk_body, void *ctx);

/** The grain parallelForImpl uses when options.grain == 0. */
std::size_t defaultGrain(std::size_t n, int jobs);

} // namespace detail

/**
 * Run body(i) exactly once for every i in [0, n), chunked and
 * work-stolen across options.jobs workers. Blocks until every index
 * has run. The body must not touch shared mutable state except
 * through its own per-index slots (or its own synchronization).
 */
template <typename Body>
void
parallelFor(std::size_t n, const ParallelForOptions &options,
            Body &&body)
{
    using Fn = std::remove_reference_t<Body>;
    detail::parallelForImpl(
        n, options,
        [](void *ctx, std::size_t begin, std::size_t end) {
            Fn &fn = *static_cast<Fn *>(ctx);
            for (std::size_t i = begin; i < end; ++i)
                fn(i);
        },
        const_cast<void *>(
            static_cast<const void *>(std::addressof(body))));
}

} // namespace twocs::exec

#endif // TWOCS_EXEC_PARALLEL_FOR_HH
