/** @file Tests for the elastic shard fleet: the deterministic lease
 *  queue (grant order, expiry, stealing, late/stale completions),
 *  the wire protocol and coordinator dispatch, the resume-aware plan
 *  step, the static-vs-stealing makespan models, and three end-to-end
 *  invariants - a live two-worker socket fleet, a many-threaded fleet
 *  whose private checkpoints are deleted before the join, and a
 *  SIGKILLed worker plus takeover all merge byte-identical to a
 *  single-process sweep. */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/fleet.hh"
#include "core/metrics.hh"
#include "core/shard.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "serve/serve_protocol.hh"

using namespace migc;

// ThreadSanitizer cannot follow a forked child that starts threads
// (the runtime's own background thread makes every fork
// "multi-threaded"); the SIGKILL test skips itself there. The
// lease/steal/expiry threading it exercises is still covered under
// TSan by the in-process socket test.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MIGC_FLEET_TSAN 1
#endif
#endif
#if !defined(MIGC_FLEET_TSAN) && defined(__SANITIZE_THREAD__)
#define MIGC_FLEET_TSAN 1
#endif

namespace
{

/** This process's id, fixed before any test forks: forked children
 *  must name the same files as their parent. */
const std::string kRunTag = std::to_string(::getpid());

/** A file or socket path private to this test process, so two runs
 *  of this suite at once never share a cache or a socket. */
std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + "migc_fleet_" + kRunTag + "_" + leaf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
removeCacheFamily(const std::string &base, unsigned shards)
{
    std::remove(base.c_str());
    for (unsigned i = 0; i < shards; ++i) {
        std::remove(shardCachePath(base, i).c_str());
        std::remove(workerCheckpointPath(base, i).c_str());
    }
}

/** The small grid the end-to-end fleet tests sweep. */
std::vector<RunRequest>
smallGrid()
{
    const SimConfig cfg = SimConfig::testConfig();
    std::vector<RunRequest> grid;
    for (const char *w : {"FwSoft", "FwBN"}) {
        for (const char *p : {"Uncached", "CacheR", "CacheRW"})
            grid.push_back(RunRequest{cfg, w, p});
    }
    return grid;
}

/**
 * A worker stream that looks at the files behind each `push` it
 * sends. From the second push on, the coordinator's stored copy
 * exists and the worker's checkpoint is what is being uploaded;
 * they must be two different files, or a worker append and a stored
 * push could overwrite each other.
 */
class PushWatch : public Stream
{
  public:
    PushWatch(std::unique_ptr<Stream> inner, std::string checkpoint,
              std::string stored, std::atomic<int> &seen,
              std::atomic<int> &aliased)
        : inner_(std::move(inner)), checkpoint_(std::move(checkpoint)),
          stored_(std::move(stored)), seen_(seen), aliased_(aliased)
    {}

    ssize_t read(void *buf, std::size_t n) override
    {
        return inner_->read(buf, n);
    }

    bool writeAll(const void *buf, std::size_t n) override
    {
        std::error_code ec;
        if (n >= 5 && std::memcmp(buf, "push ", 5) == 0 &&
            std::filesystem::exists(stored_, ec)) {
            ++seen_;
            if (std::filesystem::equivalent(checkpoint_, stored_, ec))
                ++aliased_;
        }
        return inner_->writeAll(buf, n);
    }

    void shutdown() override { inner_->shutdown(); }

  private:
    std::unique_ptr<Stream> inner_;
    std::string checkpoint_;
    std::string stored_;
    std::atomic<int> &seen_;
    std::atomic<int> &aliased_;
};

std::vector<std::uint32_t>
allPending(std::size_t n)
{
    std::vector<std::uint32_t> pending(n);
    for (std::size_t i = 0; i < n; ++i)
        pending[i] = static_cast<std::uint32_t>(i);
    return pending;
}

/** Does the file hold at least one parseable result row yet?
 *  Loads memory-only, so the probe never rewrites the file. */
bool
hasCheckpointedRow(const std::string &path)
{
    RunCache probe{std::string()};
    probe.mergeFile(path);
    return probe.size() > 0;
}

} // namespace

// ---------------------------------------------------------------------
// FleetQueue: the deterministic core, replayed on injected time
// ---------------------------------------------------------------------

TEST(FleetQueue, GrantsLongestEstimateFirstInLeaseChunks)
{
    FleetQueue q({10, 50, 30, 20, 40, 60}, allPending(6),
                 FleetConfig{2, 1000});
    EXPECT_EQ(q.totalKeys(), 6u);

    FleetGrant g1 = q.lease(0, 10);
    ASSERT_EQ(g1.kind, FleetGrant::Kind::work);
    EXPECT_EQ(g1.keys, (std::vector<std::uint32_t>{5, 1}));
    EXPECT_FALSE(g1.stolen);
    EXPECT_EQ(g1.renewMs, 1000u);

    FleetGrant g2 = q.lease(1, 11);
    EXPECT_EQ(g2.keys, (std::vector<std::uint32_t>{4, 2}));
    FleetGrant g3 = q.lease(0, 12);
    EXPECT_EQ(g3.keys, (std::vector<std::uint32_t>{3, 0}));
    EXPECT_NE(g1.id, g2.id);
    EXPECT_EQ(q.pendingCount(), 0u);
    EXPECT_EQ(q.activeLeases(), 3u);

    // Retire everything; the queue drains and says so.
    for (std::uint32_t key : g1.keys)
        EXPECT_TRUE(q.done(0, g1.id, key, 100));
    for (std::uint32_t key : g2.keys)
        EXPECT_TRUE(q.done(1, g2.id, key, 100));
    for (std::uint32_t key : g3.keys)
        EXPECT_TRUE(q.done(0, g3.id, key, 100));
    EXPECT_TRUE(q.drained());
    EXPECT_EQ(q.lease(2, 101).kind, FleetGrant::Kind::drained);
    ASSERT_EQ(q.completions().size(), 6u);
    EXPECT_EQ(q.completions()[0].key, 5u);
    EXPECT_EQ(q.completions()[0].worker, 0u);
}

TEST(FleetQueue, CompletionExtendsTheRenewDeadline)
{
    FleetQueue q({1, 1}, allPending(2), FleetConfig{2, 1000});
    FleetGrant g = q.lease(0, 100); // deadline 1100
    ASSERT_EQ(g.keys.size(), 2u);

    // A done at 1050 is liveness evidence: deadline moves to 2050.
    EXPECT_TRUE(q.done(0, g.id, g.keys[0], 1050));
    q.expire(1500);
    EXPECT_EQ(q.activeLeases(), 1u);
    EXPECT_TRUE(q.renew(0, g.id, 1500).ok);

    // Past the extended deadline the lease finally expires and its
    // remaining key goes back to pending.
    q.expire(2600);
    EXPECT_EQ(q.activeLeases(), 0u);
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_EQ(q.expiredLeases(), 1u);
}

TEST(FleetQueue, ExpiredLeaseRequeuesForOtherWorkers)
{
    FleetQueue q({5, 4}, allPending(2), FleetConfig{2, 100});
    FleetGrant g0 = q.lease(0, 10); // deadline 110
    ASSERT_EQ(g0.keys.size(), 2u);

    // Worker 0 never renews; worker 1's lease at 200 sweeps the
    // expired keys back and is granted them fresh (not stolen).
    FleetGrant g1 = q.lease(1, 200);
    ASSERT_EQ(g1.kind, FleetGrant::Kind::work);
    EXPECT_FALSE(g1.stolen);
    EXPECT_EQ(g1.keys, g0.keys);
    EXPECT_EQ(q.expiredLeases(), 1u);
    EXPECT_EQ(q.workerStats().at(0).expired, 1u);

    // The dead lease no longer renews.
    EXPECT_FALSE(q.renew(0, g0.id, 210).ok);
}

TEST(FleetQueue, IdleWorkerStealsFromTheSlowestLease)
{
    FleetQueue q({100, 90, 10, 9, 8, 7}, allPending(6),
                 FleetConfig{3, 1000});
    FleetGrant g1 = q.lease(0, 1);
    EXPECT_EQ(g1.keys, (std::vector<std::uint32_t>{0, 1, 2}));
    FleetGrant g2 = q.lease(1, 2);
    EXPECT_EQ(g2.keys, (std::vector<std::uint32_t>{3, 4, 5}));
    EXPECT_EQ(q.pendingCount(), 0u);

    // Pending is empty: worker 2's lease shrinks the costliest lease
    // (worker 0's, 200 estimated remaining) and takes its tail - the
    // keys the victim is least likely to have started.
    FleetGrant g3 = q.lease(2, 3);
    ASSERT_EQ(g3.kind, FleetGrant::Kind::work);
    EXPECT_TRUE(g3.stolen);
    EXPECT_EQ(g3.keys, (std::vector<std::uint32_t>{2}));
    FleetQueue::Renewal r = q.renew(0, g1.id, 4);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.keys, (std::vector<std::uint32_t>{0, 1}));

    // Still the slowest: worker 3 steals from worker 0 again...
    FleetGrant g4 = q.lease(3, 5);
    EXPECT_EQ(g4.keys, (std::vector<std::uint32_t>{1}));
    // ...after which worker 0 holds one key and worker 1's lease
    // (24 remaining) is the only one left with a splittable tail.
    FleetGrant g5 = q.lease(4, 6);
    EXPECT_TRUE(g5.stolen);
    EXPECT_EQ(g5.keys, (std::vector<std::uint32_t>{5}));

    EXPECT_EQ(q.workerStats().at(2).steals, 1u);
    EXPECT_EQ(q.workerStats().at(2).leases, 1u);
    EXPECT_EQ(q.workerStats().at(0).steals, 0u);
}

TEST(FleetQueue, SingleKeyLeasesCannotBeSplit)
{
    FleetQueue q({2, 1}, allPending(2), FleetConfig{1, 400});
    EXPECT_EQ(q.lease(0, 1).keys, (std::vector<std::uint32_t>{0}));
    EXPECT_EQ(q.lease(1, 2).keys, (std::vector<std::uint32_t>{1}));

    // Every outstanding lease holds one key: nothing to steal, the
    // idle worker is told to retry shortly.
    FleetGrant g = q.lease(2, 3);
    EXPECT_EQ(g.kind, FleetGrant::Kind::wait);
    EXPECT_GT(g.waitMs, 0u);
    EXPECT_LE(g.waitMs, 100u);
}

TEST(FleetQueue, LateDoneAfterExpiryStillRetiresTheKey)
{
    FleetQueue q({3, 2, 1}, allPending(3), FleetConfig{2, 100});
    FleetGrant g0 = q.lease(0, 10); // keys {0, 1}, deadline 110

    // The lease expires; its keys rejoin pending {2}.
    q.expire(500);
    EXPECT_EQ(q.pendingCount(), 3u);

    // Worker 0 was only wedged, not dead: its completion is real (the
    // row is checkpointed in its shard cache), so the key retires
    // straight out of pending.
    EXPECT_TRUE(q.done(0, g0.id, 1, 600));
    EXPECT_EQ(q.pendingCount(), 2u);
    EXPECT_EQ(q.completedCount(), 1u);
    EXPECT_EQ(q.workerStats().at(0).runs, 1u);

    // Reporting the same key again is stale.
    EXPECT_FALSE(q.done(0, g0.id, 1, 601));
    EXPECT_EQ(q.workerStats().at(0).staleDones, 1u);
}

TEST(FleetQueue, LateDoneBeatsTheThief)
{
    FleetQueue q({100, 90, 10}, allPending(3), FleetConfig{3, 1000});
    FleetGrant victim = q.lease(0, 1); // {0, 1, 2}
    FleetGrant theft = q.lease(1, 2);  // steals {2}
    ASSERT_TRUE(theft.stolen);
    ASSERT_EQ(theft.keys, (std::vector<std::uint32_t>{2}));

    // The victim had already finished key 2 before it noticed the
    // steal: first completion wins, the key leaves the thief's lease.
    EXPECT_TRUE(q.done(0, victim.id, 2, 3));
    EXPECT_EQ(q.completedCount(), 1u);
    EXPECT_FALSE(q.renew(1, theft.id, 4).ok); // thief's lease emptied

    // The thief finishing it anyway is a stale done, not a conflict.
    EXPECT_FALSE(q.done(1, theft.id, 2, 5));
    EXPECT_EQ(q.workerStats().at(1).staleDones, 1u);
    ASSERT_EQ(q.completions().size(), 1u);
    EXPECT_EQ(q.completions()[0].worker, 0u);
}

// ---------------------------------------------------------------------
// Makespan models
// ---------------------------------------------------------------------

TEST(FleetModel, DegenerateFleetsAgree)
{
    // One worker: both models are the serial sum.
    EXPECT_DOUBLE_EQ(fleetStealMakespan({3, 2, 1}, {1.0}), 6.0);
    EXPECT_DOUBLE_EQ(fleetStaticMakespan({3, 2, 1}, {0, 0, 0}, {1.0}),
                     6.0);
    // Equal jobs, even split, equal speeds: nothing to steal.
    EXPECT_DOUBLE_EQ(fleetStealMakespan({1, 1, 1, 1}, {1.0, 1.0}),
                     2.0);
    EXPECT_DOUBLE_EQ(
        fleetStaticMakespan({1, 1, 1, 1}, {0, 0, 1, 1}, {1.0, 1.0}),
        2.0);
}

TEST(FleetModel, StragglerRatioMeetsTheAcceptanceBar)
{
    // The acceptance scenario: a paper-scale grid (102 runs, varied
    // costs), 8 workers, worker 0 a 3x straggler. The static hash
    // partition strands ~1/8 of the grid on the slow worker; the
    // stealing fleet re-balances around it. The PR's bar is >= 1.3x.
    std::vector<double> costs;
    std::vector<unsigned> owners;
    for (unsigned i = 0; i < 102; ++i) {
        costs.push_back(1.0 + static_cast<double>(i % 7) * 0.5);
        owners.push_back(i % 8);
    }
    std::vector<double> speeds(8, 1.0);
    speeds[0] = 1.0 / 3.0;

    const double s = fleetStaticMakespan(costs, owners, speeds);
    const double e = fleetStealMakespan(costs, speeds);
    EXPECT_GT(e, 0.0);
    EXPECT_GE(s / e, 1.3);

    // With no straggler the static split of this near-uniform grid
    // is already decent; stealing must not be *worse* than serial /
    // worse than the slowest static slice by construction.
    std::vector<double> flat(8, 1.0);
    EXPECT_LE(fleetStealMakespan(costs, flat),
              fleetStaticMakespan(costs, owners, flat) + 1e-9);
}

// ---------------------------------------------------------------------
// Wire protocol: parsing and coordinator dispatch
// ---------------------------------------------------------------------

TEST(FleetProtocol, ParsesFleetVerbs)
{
    ServeRequest lease = parseServeRequest("lease 3 12345");
    EXPECT_EQ(lease.kind, ServeRequest::Kind::lease);
    EXPECT_EQ(lease.worker, 3u);
    EXPECT_EQ(lease.gridHash, 12345u);

    ServeRequest done = parseServeRequest("done 2 7 41");
    EXPECT_EQ(done.kind, ServeRequest::Kind::done);
    EXPECT_EQ(done.worker, 2u);
    EXPECT_EQ(done.leaseId, 7u);
    EXPECT_EQ(done.key, 41u);

    ServeRequest renew = parseServeRequest("renew 0 9");
    EXPECT_EQ(renew.kind, ServeRequest::Kind::renew);
    EXPECT_EQ(renew.leaseId, 9u);

    // 64-bit grid fingerprints round-trip whole.
    EXPECT_EQ(parseServeRequest("lease 0 18446744073709551615")
                  .gridHash,
              UINT64_MAX);
}

TEST(FleetProtocol, RejectsMalformedFleetLines)
{
    for (const char *line : {
             "lease 3",                    // missing fingerprint
             "lease 3 12345 extra",        // extra operand
             "lease x 5",                  // non-numeric worker
             "lease 4096 5",               // worker out of range
             "lease 0 -1",                 // signed fingerprint
             "done 1 2",                   // missing key
             "done 0 1 4294967296",        // key > uint32
             "done 0 1 1.5",               // non-integer key
             "renew 1 2 3",                // extra operand
             "renew 0 18446744073709551616", // lease id overflow
         }) {
        EXPECT_EQ(parseServeRequest(line).kind,
                  ServeRequest::Kind::error)
            << line;
    }
}

TEST(FleetServer, AnswersTheWireProtocolWithoutASocket)
{
    FleetQueue q({10, 50, 30, 20, 40, 60}, allPending(6),
                 FleetConfig{2, 10000});
    FleetServer srv(tempPath("dispatch.sock"), std::move(q), 777,
                    tempPath("dispatch.csv"));

    // Blank lines and comments draw no response (replayable input).
    EXPECT_EQ(srv.handleLine(""), "");
    EXPECT_EQ(srv.handleLine("# comment"), "");

    // A worker whose flags built a different grid is refused before
    // it can misinterpret an index.
    EXPECT_NE(srv.handleLine("lease 0 776").find(
                  "# error: grid fingerprint mismatch"),
              std::string::npos);

    EXPECT_EQ(srv.handleLine("lease 0 777"),
              "# lease 1 10000 fresh 5 1\n");
    EXPECT_EQ(srv.handleLine("done 0 1 5"), "# ok\n");
    EXPECT_EQ(srv.handleLine("done 0 1 5"), "# stale\n");
    EXPECT_EQ(srv.handleLine("renew 0 1"), "# renew 1 1\n");
    EXPECT_EQ(srv.handleLine("stats"),
              "# fleet total=6 completed=1 pending=4 leased=1 "
              "workers=1 expired=0\n");

    // Serve-layer verbs exist in the shared protocol but a fleet
    // coordinator has no cache to answer them from.
    EXPECT_NE(srv.handleLine("get test FwBN CacheR")
                  .find("serve verb"),
              std::string::npos);
    EXPECT_EQ(srv.handleLine("frobnicate"),
              "# error: unknown command 'frobnicate' (try: help)\n");
}

// ---------------------------------------------------------------------
// Grid fingerprint and the resume-aware plan step
// ---------------------------------------------------------------------

TEST(GridFingerprint, SensitiveToContentOrderAndSize)
{
    auto grid = smallGrid();
    const std::uint64_t h = gridFingerprint(grid);
    EXPECT_EQ(h, gridFingerprint(smallGrid()));

    auto reordered = grid;
    std::swap(reordered[0], reordered[1]);
    EXPECT_NE(h, gridFingerprint(reordered));

    auto truncated = grid;
    truncated.pop_back();
    EXPECT_NE(h, gridFingerprint(truncated));

    auto edited = grid;
    edited[0].policy = "CacheRW";
    EXPECT_NE(h, gridFingerprint(edited));
}

TEST(FleetPlan, ColdGridIsAllPendingWithPositiveCosts)
{
    const std::string base = tempPath("plan_cold.csv");
    removeCacheFamily(base, 2);
    const auto grid = smallGrid();
    FleetPlan plan = planFleetSweep(grid, base, 2, false);
    EXPECT_EQ(plan.pending.size(), grid.size());
    EXPECT_EQ(plan.cached, 0u);
    EXPECT_EQ(plan.resumedRows, 0u);
    for (std::uint32_t key : plan.pending)
        EXPECT_GT(plan.costs[key], 0.0) << key;
}

TEST(FleetPlan, ResumeFoldsPartialShardFilesIn)
{
    const std::string base = tempPath("plan_resume.csv");
    const std::string partial = tempPath("plan_partial.csv");
    removeCacheFamily(base, 2);
    std::remove(partial.c_str());

    // A crashed fleet's worker 0 had pushed two rows: fake that by
    // sweeping just those points into what becomes its stored
    // shard.
    const auto grid = smallGrid();
    {
        SweepEngine engine(partial);
        engine.run({grid[0], grid[3]});
    }
    ASSERT_EQ(std::rename(partial.c_str(),
                          shardCachePath(base, 0).c_str()),
              0);

    // Without --resume the shard file is invisible: the full grid
    // comes back pending (re-execution would still merge cleanly).
    FleetPlan cold = planFleetSweep(grid, base, 2, false);
    EXPECT_EQ(cold.pending.size(), grid.size());
    EXPECT_EQ(cold.resumedRows, 0u);

    // With --resume only the never-checkpointed keys are pending,
    // and the shard file stays on disk for the join merge.
    FleetPlan plan = planFleetSweep(grid, base, 2, true);
    EXPECT_EQ(plan.resumedRows, 2u);
    EXPECT_EQ(plan.cached, 2u);
    EXPECT_EQ(plan.pending.size(), grid.size() - 2);
    for (std::uint32_t key : plan.pending) {
        EXPECT_NE(key, 0u);
        EXPECT_NE(key, 3u);
    }
    EXPECT_TRUE(
        static_cast<bool>(std::ifstream(shardCachePath(base, 0))));
    removeCacheFamily(base, 2);
}

TEST(FleetPlan, DuplicateGridPointsLeaseOnce)
{
    const std::string base = tempPath("plan_dupe.csv");
    removeCacheFamily(base, 2);
    auto grid = smallGrid();
    grid.push_back(grid[2]); // same run key, new index
    FleetPlan plan = planFleetSweep(grid, base, 2, false);
    EXPECT_EQ(plan.pending.size(), grid.size() - 1);
    for (std::uint32_t key : plan.pending)
        EXPECT_NE(key, grid.size() - 1);
}

// ---------------------------------------------------------------------
// End to end: live sockets, real engines, byte-identity
// ---------------------------------------------------------------------

TEST(FleetEndToEnd, TwoWorkerSocketFleetMatchesSoloByteForByte)
{
    const std::string solo = tempPath("e2e_solo.csv");
    const std::string base = tempPath("e2e_fleet.csv");
    const std::string sock = tempPath("e2e.sock");
    std::remove(solo.c_str());
    removeCacheFamily(base, 2);

    const auto grid = smallGrid();
    {
        SweepEngine engine(solo);
        engine.run(grid);
    }

    const std::uint64_t hash = gridFingerprint(grid);
    FleetPlan plan = planFleetSweep(grid, base, 2, false);
    FleetServer server(sock,
                       FleetQueue(plan.costs, plan.pending,
                                  FleetConfig{1, 10000}),
                       hash, base);
    server.start();

    std::vector<std::thread> workers;
    for (unsigned i = 0; i < 2; ++i) {
        workers.emplace_back([&, i] {
            SweepEngine engine(base, FleetWorkerSpec{i});
            FleetClient client(sock, i, hash);
            engine.runFleet(grid, client, 1);
        });
    }
    for (std::thread &t : workers)
        t.join();
    EXPECT_TRUE(server.drained());

    // The deterministic completion record covers every key once, and
    // per-worker runs add up to the grid.
    auto completions = server.completions();
    EXPECT_EQ(completions.size(), grid.size());
    std::uint64_t runs = 0;
    for (const auto &[worker, st] : server.workerStats())
        runs += st.runs;
    EXPECT_EQ(runs, grid.size());
    server.stop();

    mergeShardCaches(base, 2);
    const std::string solo_bytes = readFile(solo);
    ASSERT_FALSE(solo_bytes.empty());
    EXPECT_EQ(solo_bytes, readFile(base));

    std::remove(solo.c_str());
    removeCacheFamily(base, 2);
}

TEST(FleetEndToEnd, JoinReadsOnlyTheStoredShards)
{
    // The join reads nothing but pushed bytes. Four engine threads
    // per worker on four-key leases push concurrently; each push is
    // read and sent in order, so a stored copy only grows and still
    // holds every row reported done. Deleting the workers' private
    // checkpoints before the join must therefore change nothing.
    const std::string solo = tempPath("store_solo.csv");
    const std::string base = tempPath("store_fleet.csv");
    const std::string sock = tempPath("store.sock");
    std::remove(solo.c_str());
    removeCacheFamily(base, 2);

    const SimConfig cfg = SimConfig::testConfig();
    std::vector<RunRequest> grid;
    for (const char *w : {"FwSoft", "FwBN", "FwAct"}) {
        for (const char *p : {"Uncached", "CacheR", "CacheRW",
                              "CacheRW-CR"})
            grid.push_back(RunRequest{cfg, w, p});
    }
    {
        SweepEngine engine(solo);
        engine.run(grid);
    }

    const std::uint64_t hash = gridFingerprint(grid);
    FleetPlan plan = planFleetSweep(grid, base, 2, false);
    FleetServer server(sock,
                       FleetQueue(plan.costs, plan.pending,
                                  FleetConfig{4, 10000}),
                       hash, base);
    server.start();

    std::atomic<int> seen{0};
    std::atomic<int> aliased{0};
    std::vector<std::thread> workers;
    for (unsigned i = 0; i < 2; ++i) {
        workers.emplace_back([&, i] {
            FleetClientOptions opts;
            opts.wrap = [&, i](std::unique_ptr<Stream> inner) {
                return std::make_unique<PushWatch>(
                    std::move(inner), workerCheckpointPath(base, i),
                    shardCachePath(base, i), seen, aliased);
            };
            SweepEngine engine(base, FleetWorkerSpec{i});
            FleetClient client(sock, i, hash, opts);
            engine.runFleet(grid, client, 4);
        });
    }
    for (std::thread &t : workers)
        t.join();
    EXPECT_TRUE(server.drained());
    server.stop();
    // Twelve pushes over two workers: some worker pushed twice.
    EXPECT_GT(seen.load(), 0);
    EXPECT_EQ(aliased.load(), 0)
        << "a worker checkpoint is the coordinator's stored copy";

    for (unsigned i = 0; i < 2; ++i)
        std::remove(workerCheckpointPath(base, i).c_str());
    mergeShardCaches(base, 2);
    const std::string solo_bytes = readFile(solo);
    ASSERT_FALSE(solo_bytes.empty());
    EXPECT_EQ(solo_bytes, readFile(base));

    // A clean join leaves the canonical file and nothing else of its
    // family: no stored shard, checkpoint or temporary file.
    const std::filesystem::path canonical(base);
    const std::string family = canonical.filename().string() + ".";
    for (const auto &entry : std::filesystem::directory_iterator(
             canonical.parent_path())) {
        EXPECT_NE(entry.path().filename().string().rfind(family, 0), 0u)
            << entry.path() << " survived the join";
    }

    std::remove(solo.c_str());
    removeCacheFamily(base, 2);
}

TEST(FleetEndToEnd, SigkilledWorkerPlusTakeoverStaysByteIdentical)
{
#ifdef MIGC_FLEET_TSAN
    GTEST_SKIP() << "fork + threads is unsupported under TSan";
#endif
    const std::string solo = tempPath("kill_solo.csv");
    const std::string base = tempPath("kill_fleet.csv");
    const std::string sock = tempPath("kill.sock");
    std::remove(solo.c_str());
    removeCacheFamily(base, 2);

    const auto grid = smallGrid();
    {
        SweepEngine engine(solo);
        engine.run(grid);
    }

    const std::uint64_t hash = gridFingerprint(grid);
    FleetPlan plan = planFleetSweep(grid, base, 2, false);
    FleetServer server(sock,
                       FleetQueue(plan.costs, plan.pending,
                                  FleetConfig{1, 500}),
                       hash, base);

    // Fork the victim worker *before* the server spawns any thread:
    // the child is single-threaded at fork and builds its own
    // engine, client, and renewer from scratch.
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Worker 0, slowed so the parent can SIGKILL it mid-run. The
        // client ctor retries connecting while the parent binds.
        SweepEngine engine(base, FleetWorkerSpec{0});
        engine.setInjectedRunDelayMs(200);
        FleetClient client(sock, 0, hash);
        engine.runFleet(grid, client, 1);
        _exit(0);
    }

    server.start();

    // Wait until worker 0 has pushed at least one row - the
    // crash-safety contract says the row reached the coordinator's
    // store before the matching `done` - then kill it dead
    // mid-lease.
    bool checkpointed = false;
    for (int i = 0; i < 3000 && !checkpointed; ++i) {
        checkpointed = hasCheckpointedRow(shardCachePath(base, 0));
        if (!checkpointed)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(checkpointed)
        << "worker 0 never checkpointed a row";
    EXPECT_TRUE(WIFSIGNALED(status));

    // Worker 1 takes over: the victim's outstanding lease expires
    // (500 ms renew deadline), its keys requeue, and the survivor
    // drains the grid.
    {
        SweepEngine engine(base, FleetWorkerSpec{1});
        FleetClient client(sock, 1, hash);
        engine.runFleet(grid, client, 1);
    }
    EXPECT_TRUE(server.drained());
    server.stop();

    // The dead worker's stored partial shard plus the survivor's
    // merge into exactly the single-process file: duplicated keys
    // (pushed but never reported) dedupe byte-identically.
    mergeShardCaches(base, 2);
    const std::string solo_bytes = readFile(solo);
    ASSERT_FALSE(solo_bytes.empty());
    EXPECT_EQ(solo_bytes, readFile(base));

    std::remove(solo.c_str());
    removeCacheFamily(base, 2);
}
