#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "support/fault_injection.h"
#include "support/logging.h"

namespace astitch {

int
resolveCompileThreads(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("ASTITCH_COMPILE_THREADS")) {
        try {
            const int n = std::stoi(env);
            if (n > 0)
                return n;
        } catch (const std::exception &) {
            warn("ignoring unparsable ASTITCH_COMPILE_THREADS='", env,
                 "'");
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

void
parallelFor(int num_threads, std::size_t n,
            const std::function<void(std::size_t)> &body)
{
    if (num_threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // Each index writes only its own slot of `errors`, so the vector
    // needs no lock; the joins below order those writes before the scan.
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(n);
    auto drain = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                // Threaded path only: the serial loop above never passes
                // here, so a permanent "thread-pool-task" fault is
                // recoverable by recompiling with threads == 1.
                faultPoint("thread-pool-task");
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    const std::size_t helpers =
        std::min(static_cast<std::size_t>(num_threads), n) - 1;
    std::vector<std::thread> threads;
    threads.reserve(helpers);
    try {
        for (std::size_t t = 0; t < helpers; ++t)
            threads.emplace_back(drain);
    } catch (...) {
        // A helper failed to start: claim every remaining index so the
        // running helpers stop, join them, then report the failure.
        next.store(n, std::memory_order_relaxed);
        for (std::thread &thread : threads)
            thread.join();
        throw;
    }
    drain();
    for (std::thread &thread : threads)
        thread.join();

    for (std::size_t i = 0; i < n; ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }
}

} // namespace astitch
