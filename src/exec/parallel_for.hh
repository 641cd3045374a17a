/**
 * @file
 * A chunked parallel index loop over one shared chunk cursor.
 *
 * parallelFor(n, options, body) splits the index range [0, n) into
 * contiguous chunks of ~`grain` indices (chunk k covers
 * [k*grain, min((k+1)*grain, n))) and runs one worker per job, the
 * calling thread being worker 0. Each worker claims the next chunk
 * with one atomic fetch_add until none is left. Because every index
 * runs exactly once and writes only its own output slot, results are
 * independent of which worker claims which chunk — `--jobs 1` and
 * `--jobs N` output stays byte-identical even though the interleaving
 * is not.
 *
 * This is the codebase's one executor: the ParallelSweepRunner maps
 * studies through it and the query service fans each batch's misses
 * out over it. No per-task std::function, no queue mutex, no
 * condition variables — one atomic per chunk.
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
     *  chunks per worker (load-balance slack without per-index
     *  cost). */
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
 * Run body(i) exactly once for every i in [0, n), chunked across
 * options.jobs workers. Blocks until every index has run. The body
 * must not touch shared mutable state except through its own
 * per-index slots (or its own synchronization).
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
