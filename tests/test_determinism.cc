/** @file Determinism regression tests: a (workload, policy, seed)
 *  run must be bit-identical whether it executes serially or through
 *  the parallel sweep pool, and seed streams must be stable. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.hh"
#include "core/runner.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "support/env.hh"
#include "workloads/workload.hh"

using namespace migc;
using migc::test::ScopedEnv;

namespace
{

/** Field-by-field bitwise comparison of two runs. */
void
expectIdentical(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.execTicks, b.execTicks);
    EXPECT_EQ(a.execSeconds, b.execSeconds);
    EXPECT_EQ(a.gpuMemRequests, b.gpuMemRequests);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(a.dramRowHitRate, b.dramRowHitRate);
    EXPECT_EQ(a.cacheStallCycles, b.cacheStallCycles);
    EXPECT_EQ(a.stallsPerRequest, b.stallsPerRequest);
    EXPECT_EQ(a.vops, b.vops);
    EXPECT_EQ(a.gvops, b.gvops);
    EXPECT_EQ(a.gmrps, b.gmrps);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l2Writebacks, b.l2Writebacks);
    EXPECT_EQ(a.rinseWritebacks, b.rinseWritebacks);
    EXPECT_EQ(a.allocBypassed, b.allocBypassed);
    EXPECT_EQ(a.predictorBypasses, b.predictorBypasses);
    EXPECT_EQ(a.kernels, b.kernels);
    EXPECT_EQ(a.simEvents, b.simEvents);
}

} // namespace

TEST(SeedStreams, DeriveSeedIsPureAndCollisionResistant)
{
    EXPECT_EQ(deriveSeed(1, "FwSoft/CacheRW"),
              deriveSeed(1, "FwSoft/CacheRW"));
    EXPECT_NE(deriveSeed(1, "FwSoft/CacheRW"),
              deriveSeed(2, "FwSoft/CacheRW"));
    EXPECT_NE(deriveSeed(1, "FwSoft/CacheRW"),
              deriveSeed(1, "FwSoft/CacheR"));
    EXPECT_NE(deriveSeed(1, std::uint64_t(0)),
              deriveSeed(1, std::uint64_t(1)));
}

TEST(SeedStreams, RngSequenceIsReproducible)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.next(), b.next());
    // Nearby seeds diverge immediately.
    Rng a2(42);
    EXPECT_NE(a2.next(), c.next());
}

TEST(Determinism, NamedRunIsRepeatable)
{
    SimConfig cfg = SimConfig::testConfig();
    RunMetrics a = runNamedWorkload("FwSoft", cfg, "CacheRW");
    RunMetrics b = runNamedWorkload("FwSoft", cfg, "CacheRW");
    expectIdentical(a, b);
}

TEST(Determinism, ParallelForCoversEveryIndexExactlyOnce)
{
    // Each call also names its worker's slot: below min(jobs, n), and
    // never held by two threads at once, which is what lets a slot
    // own a warm System without a lock.
    for (const std::size_t n : {std::size_t(3), std::size_t(257)}) {
        SCOPED_TRACE(n);
        const unsigned jobs = 8;
        const std::size_t slots = std::min<std::size_t>(jobs, n);
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h.store(0);
        std::vector<std::atomic<bool>> busy(jobs);
        for (auto &b : busy)
            b.store(false);
        std::atomic<int> out_of_range{0};
        std::atomic<int> shared{0};
        std::atomic<std::size_t> started{0};
        parallelFor(
            n,
            [&](std::size_t i, unsigned slot) {
                if (slot >= slots) {
                    out_of_range.fetch_add(1);
                    return;
                }
                if (busy[slot].exchange(true))
                    shared.fetch_add(1);
                hits[i].fetch_add(1);
                // Hold the first calls until one per worker has
                // started (bounded), so every slot is in use at once
                // and a slot handed to two threads is caught busy.
                if (i < slots) {
                    started.fetch_add(1);
                    const auto until = std::chrono::steady_clock::now() +
                                       std::chrono::seconds(5);
                    while (started.load() < slots &&
                           std::chrono::steady_clock::now() < until)
                        std::this_thread::yield();
                }
                busy[slot].store(false);
            },
            jobs);
        EXPECT_EQ(out_of_range.load(), 0);
        EXPECT_EQ(shared.load(), 0);
        for (auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(Determinism, SerialAndParallelSweepsAreBitIdentical)
{
    ScopedEnv no_cache("MIGC_NO_CACHE", "1");
    SimConfig cfg = SimConfig::testConfig();
    const std::vector<std::string> policies{"CacheR", "CacheRW"};

    ExperimentSweep serial(cfg);
    {
        ScopedEnv jobs("MIGC_JOBS", "1");
        serial.prefetch(policies);
    }

    ExperimentSweep parallel(cfg);
    {
        ScopedEnv jobs("MIGC_JOBS", "4");
        parallel.prefetch(policies);
    }

    for (const auto &w : workloadOrder()) {
        for (const auto &p : policies)
            expectIdentical(serial.get(w, p), parallel.get(w, p));
    }
}

TEST(Determinism, LptMultiConfigSweepIsBitIdenticalAcrossJobCounts)
{
    // A mixed-config grid through the sweep engine: two structurally
    // different configs, several policies. The LPT scheduler and
    // per-worker System reuse must not leak any state between runs -
    // one worker replaying everything serially and four workers
    // racing must produce bit-identical metrics.
    SimConfig small = SimConfig::testConfig();
    SimConfig big_dbi = SimConfig::testConfig();
    big_dbi.l2Bank.dbiRows = 16;
    ASSERT_FALSE(SimConfig::structurallyEqual(small, big_dbi));

    std::vector<RunRequest> grid;
    for (const auto &w : {"FwSoft", "FwBN", "BwSoft"}) {
        for (const auto &p : {"Uncached", "CacheRW", "CacheRW-CR"}) {
            grid.push_back(RunRequest{small, w, p});
            grid.push_back(RunRequest{big_dbi, w, p});
        }
    }

    SweepEngine one_worker("");
    auto serial = one_worker.run(grid, 1);
    SweepEngine four_workers("");
    auto parallel = four_workers.run(grid, 4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], parallel[i]);

    // Both engines simulated every unique grid point exactly once.
    EXPECT_EQ(one_worker.simulationsPerformed(), grid.size());
    EXPECT_EQ(four_workers.simulationsPerformed(), grid.size());
}
