/**
 * @file
 * parallelFor: fan independent per-index work out over plain threads.
 *
 * The JIT pipeline's per-cluster work (stitching, thread-mapping and
 * data-management planning, then sanitizer analysis) is embarrassingly
 * parallel — every cluster compiles independently of its neighbors.
 * parallelFor() starts helper threads for one call, has them and the
 * caller claim indices from a shared counter, joins them, and rethrows
 * the lowest-index exception (so failures are deterministic under any
 * thread count).
 */
#ifndef ASTITCH_SUPPORT_THREAD_POOL_H
#define ASTITCH_SUPPORT_THREAD_POOL_H

#include <cstddef>
#include <functional>

namespace astitch {

/**
 * Resolve a requested thread count into an actual one:
 *   requested > 0  -> requested;
 *   requested == 0 -> $ASTITCH_COMPILE_THREADS when set and positive,
 *                     else std::thread::hardware_concurrency().
 * The result is always >= 1.
 */
int resolveCompileThreads(int requested);

/**
 * Run body(i) for every i in [0, n) on the calling thread plus
 * min(num_threads, n) - 1 helper threads; returns when all indices
 * finished and every helper is joined. A plain serial loop (no threads,
 * no fault point) when num_threads <= 1 or n <= 1. Exceptions thrown by
 * the body are captured per index and the lowest-index one is rethrown
 * on the caller — the same failure surfaces regardless of thread count
 * or scheduling, keeping parallel compilation deterministic.
 */
void parallelFor(int num_threads, std::size_t n,
                 const std::function<void(std::size_t)> &body);

} // namespace astitch

#endif // ASTITCH_SUPPORT_THREAD_POOL_H
