/**
 * @file
 * Host-side parallelism for experiment sweeps.
 *
 * Simulated runs are single-threaded and self-contained (each owns
 * its System and event queue), so independent runs shard across a
 * std::thread pool: parallelFor, the one pool that both
 * SweepEngine::run and a fleet worker's SweepEngine::runFleet run
 * their batches on. MIGC_JOBS overrides the worker count; the
 * default is one worker per hardware thread.
 */

#ifndef MIGC_SIM_PARALLEL_HH
#define MIGC_SIM_PARALLEL_HH

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/env.hh"

namespace migc
{

/**
 * Worker count for parallel sweeps: MIGC_JOBS, else all cores.
 * A malformed MIGC_JOBS ("abc", "0", "-1") is fatal, matching
 * migc_sweep's count flags: a typo'd job count must not silently
 * fall back to oversubscribing every core. An unset or empty
 * variable still means the hardware default.
 */
inline unsigned
sweepJobs()
{
    if (const char *env = std::getenv("MIGC_JOBS")) {
        if (env[0] != '\0')
            return parseBoundedUnsigned("MIGC_JOBS", env, 1, 4096);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/**
 * Run fn(i, slot) for every i in [0, n), sharding dynamically across
 * up to @p jobs worker threads (0 = sweepJobs()). @p slot names the
 * worker making the call: it lies in [0, min(jobs, n)), and no two
 * threads use one slot at once, so state indexed by slot (a warm
 * System, say) needs no lock. One worker runs every call on the
 * caller's thread, in index order. Blocks until all iterations
 * finish. The first exception thrown by any iteration is rethrown in
 * the caller after the pool drains.
 *
 * @p fn must be safe to call concurrently for distinct i and slots.
 */
template <typename Fn>
void
parallelFor(std::size_t n, Fn &&fn, unsigned jobs = 0)
{
    if (n == 0)
        return;
    if (jobs == 0)
        jobs = sweepJobs();
    if (static_cast<std::size_t>(jobs) > n)
        jobs = static_cast<unsigned>(n);

    if (jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i, 0u);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mu;

    auto worker = [&](unsigned slot) {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i, slot);
            } catch (...) {
                std::lock_guard<std::mutex> lk(error_mu);
                if (!error)
                    error = std::current_exception();
                // Drain remaining work so the pool exits promptly.
                next.store(n, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned slot = 0; slot < jobs; ++slot)
        pool.emplace_back(worker, slot);
    for (auto &th : pool)
        th.join();

    if (error)
        std::rethrow_exception(error);
}

} // namespace migc

#endif // MIGC_SIM_PARALLEL_HH
