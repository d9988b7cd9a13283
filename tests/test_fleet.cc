/** @file Tests for the elastic fleet: the deterministic lease queue
 *  (grant order, expiry, stealing, late/stale completions), the wire
 *  protocol and coordinator dispatch, the grid fingerprint and the
 *  plan step, the one store (a push merges whole or not at all, and
 *  a conflict fails the sweep), the flags migc_sweep refuses, and
 *  four end-to-end invariants - a live two-worker socket fleet, a
 *  many-threaded fleet whose pushes are in the file before the join,
 *  a SIGKILLed worker plus takeover, and hand-started CLI workers
 *  that write no file - all ending byte-identical to a
 *  single-process sweep. */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "core/cache_v4.hh"
#include "core/fleet.hh"
#include "core/metrics.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "serve/serve_protocol.hh"
#include "sim/logging.hh"
#include "support/cache_file.hh"
#include "support/env.hh"

using namespace migc;
using migc::test::readFile;
using migc::test::tempPath;

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

std::vector<std::uint32_t>
allPending(std::size_t n)
{
    std::vector<std::uint32_t> pending(n);
    for (std::size_t i = 0; i < n; ++i)
        pending[i] = static_cast<std::uint32_t>(i);
    return pending;
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
    RunCache store{std::string()};
    FleetServer srv(tempPath("dispatch.sock"), std::move(q), 777, store);

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
// Grid fingerprint and the plan step
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

TEST(GridFingerprint, KeyComponentsAreSeparated)
{
    // Moving a character across the workload/policy boundary keeps
    // the concatenated key text but names a different run, so the
    // fingerprint must change: the components are hashed with a
    // separator, not glued together.
    const SimConfig cfg = SimConfig::testConfig();
    const std::uint64_t h =
        gridFingerprint({RunRequest{cfg, "FwSoft", "CacheRW"}});
    EXPECT_EQ(h, gridFingerprint({RunRequest{cfg, "FwSoft", "CacheRW"}}));
    EXPECT_NE(h, gridFingerprint({RunRequest{cfg, "FwSoftC", "acheRW"}}));
    EXPECT_NE(h, gridFingerprint({RunRequest{cfg, "FwSof", "tCacheRW"}}));
    EXPECT_NE(h, gridFingerprint({RunRequest{cfg, "FwSoft", "CacheR"}}));
}

TEST(SweepPlan, ColdGridIsAllPendingWithPositiveCosts)
{
    const RunCache empty{std::string()};
    const auto grid = smallGrid();
    SweepPlan plan = planSweep(grid, empty);
    EXPECT_EQ(plan.pending.size(), grid.size());
    EXPECT_EQ(plan.cached, 0u);
    for (std::uint32_t key : plan.pending)
        EXPECT_GT(plan.costs[key], 0.0) << key;
    ASSERT_EQ(plan.sigs.size(), grid.size());
    EXPECT_EQ(plan.sigs[0], grid[0].cfg.signature());

    // Longest estimate first, the lower index first among equal
    // estimates (a workload's policies share its footprint).
    std::vector<std::uint32_t> want(grid.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        want[i] = static_cast<std::uint32_t>(i);
    std::stable_sort(want.begin(), want.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return plan.costs[a] > plan.costs[b];
                     });
    EXPECT_EQ(plan.pending, want);
    EXPECT_EQ(plan.costs[3], plan.costs[4]);
    EXPECT_GT(plan.costs[3], plan.costs[0]); // not index order
}

TEST(SweepPlan, LeasesOnlyKeysTheCanonicalCacheLacks)
{
    // What a rerun after a crash sees: the canonical file already
    // holds every row pushed before it, so only the rest is pending.
    const std::string base = tempPath("plan_rerun.csv");
    std::remove(base.c_str());
    const auto grid = smallGrid();
    {
        SweepEngine engine(base);
        engine.run({grid[0], grid[3]});
    }
    const RunCache canonical(base);
    SweepPlan plan = planSweep(grid, canonical);
    EXPECT_EQ(plan.cached, 2u);
    EXPECT_EQ(plan.pending.size(), grid.size() - 2);
    for (std::uint32_t key : plan.pending) {
        EXPECT_NE(key, 0u);
        EXPECT_NE(key, 3u);
    }
    std::remove(base.c_str());
}

TEST(SweepPlan, DuplicateGridPointsLeaseOnce)
{
    const RunCache empty{std::string()};
    auto grid = smallGrid();
    grid.push_back(grid[2]); // same run key, new index
    SweepPlan plan = planSweep(grid, empty);
    EXPECT_EQ(plan.pending.size(), grid.size() - 1);
    for (std::uint32_t key : plan.pending)
        EXPECT_NE(key, grid.size() - 1);
}

// ---------------------------------------------------------------------
// The one store: a push is verified, merged whole or not at all
// ---------------------------------------------------------------------

namespace
{

/** One v4 segment of @p rows under @p sig, sorted as the writer
 *  needs. */
std::string
segmentOf(const std::string &sig, std::vector<RunMetrics> rows)
{
    std::sort(rows.begin(), rows.end(),
              [](const RunMetrics &a, const RunMetrics &b) {
                  return std::tie(a.workload, a.policy) <
                         std::tie(b.workload, b.policy);
              });
    std::vector<V4RowRef> refs;
    for (const RunMetrics &m : rows)
        refs.push_back(V4RowRef{sig, m.workload, m.policy, packV4Row(m)});
    return buildV4Segment(refs);
}

RunMetrics
fakeRow(const std::string &workload, const std::string &policy,
        Tick exec_ticks)
{
    RunMetrics m;
    m.workload = workload;
    m.policy = policy;
    m.execTicks = exec_ticks;
    return m;
}

/** Send one `push` frame for @p segment and return the reply line. */
std::string
pushRaw(Stream &conn, const std::string &segment)
{
    const std::string header = csprintf(
        "push 0 1 %zu %llu\n", segment.size(),
        static_cast<unsigned long long>(
            v4Checksum(segment.data(), segment.size())));
    if (!conn.writeAll(header + segment))
        return "(write failed)";
    std::string line;
    char c;
    while (conn.read(&c, 1) == 1 && c != '\n')
        line.push_back(c);
    return line;
}

} // namespace

TEST(FleetStore, ConflictingPushIsRefusedWholeAndWritesNothing)
{
    // The canonical cache holds FwSoft/CacheRW. A push that carries a
    // new key *and* a different row for FwSoft/CacheRW must be
    // refused whole: the reply names the key, no row of it is merged
    // and the file keeps its bytes.
    const std::string base = tempPath("conflict.csv");
    std::remove(base.c_str());
    {
        RunCache seed(base);
        seed.insert("sig", fakeRow("FwSoft", "CacheRW", 1111));
        seed.flush();
    }
    const std::string before = readFile(base);
    ASSERT_FALSE(before.empty());

    RunCache store(base);
    FleetServer server("tcp:127.0.0.1:0",
                       FleetQueue({1.0}, {0}, FleetConfig{1, 10000}), 42,
                       store);
    server.start();
    std::string error;
    std::unique_ptr<Stream> conn =
        connectTo(server.boundEndpoint(), &error);
    ASSERT_NE(conn, nullptr) << error;

    const std::string reply = pushRaw(
        *conn, segmentOf("sig", {fakeRow("FwBN", "Uncached", 7),
                                 fakeRow("FwSoft", "CacheRW", 2222)}));
    EXPECT_EQ(reply.rfind("# error: push conflict: ", 0), 0u) << reply;
    EXPECT_NE(reply.find("FwSoft/CacheRW under config sig"),
              std::string::npos)
        << reply;
    EXPECT_NE(reply.find("did not run the same deterministic sweep"),
              std::string::npos)
        << reply;

    // An identical re-push of the stored row is a duplicate, not a
    // conflict, and lands.
    const std::string same =
        segmentOf("sig", {fakeRow("FwSoft", "CacheRW", 1111)});
    EXPECT_EQ(pushRaw(*conn, same),
              "# pushed " + std::to_string(same.size()));
    conn.reset();
    server.stop();

    EXPECT_EQ(server.pushTotals().pushes, 1u);
    EXPECT_EQ(server.pushTotals().rows, 0u);
    EXPECT_EQ(server.pushTotals().duplicates, 1u);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.find("sig", "FwBN", "Uncached"), nullptr);
    EXPECT_EQ(readFile(base), before);
    std::remove(base.c_str());
}

TEST(FleetStoreDeathTest, ConflictFailsTheCoordinatorAndTheWorker)
{
    // A refused conflict fails the whole sweep at once: the worker
    // that pushed it dies without retrying, and the coordinator
    // exits non-zero naming the key. (Memory-only store: the
    // re-executed death-test children leave no file behind.)
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RunCache store{std::string()};
    store.insert("sig", fakeRow("FwSoft", "CacheRW", 1111));
    FleetServer server("tcp:127.0.0.1:0",
                       FleetQueue({1.0}, {0}, FleetConfig{1, 10000}), 42,
                       store);
    server.start();
    const std::string spec = server.boundEndpoint().spec();
    const std::string conflicting =
        segmentOf("sig", {fakeRow("FwSoft", "CacheRW", 2222)});

    // Nothing refused yet: the coordinator carries on.
    server.exitOnConflict();

    EXPECT_EXIT(
        {
            FleetClient client(spec, 0, 42);
            client.pushSegment(1, conflicting);
        },
        ::testing::ExitedWithCode(1),
        "fleet push refused: # error: push conflict: .*FwSoft/CacheRW");
    EXPECT_EXIT(
        {
            std::string error;
            std::unique_ptr<Stream> conn =
                connectTo(server.boundEndpoint(), &error);
            if (conn != nullptr)
                pushRaw(*conn, conflicting);
            server.exitOnConflict();
        },
        ::testing::ExitedWithCode(1),
        "FwSoft/CacheRW under config sig.*did not run the same "
        "deterministic sweep");
    server.stop();
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
    std::remove(base.c_str());

    const auto grid = smallGrid();
    {
        SweepEngine engine(solo);
        engine.run(grid);
    }

    const std::uint64_t hash = gridFingerprint(grid);
    RunCache store(base);
    SweepPlan plan = planSweep(grid, store);
    FleetServer server(sock,
                       FleetQueue(plan.costs, plan.pending,
                                  FleetConfig{1, 10000}),
                       hash, store);
    server.start();

    std::vector<std::thread> workers;
    for (unsigned i = 0; i < 2; ++i) {
        workers.emplace_back([&, i] {
            SweepEngine engine{std::string()};
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
    EXPECT_EQ(server.pushTotals().rows, grid.size());

    // The join is the store's compaction.
    ASSERT_TRUE(store.saveNow());
    const std::string solo_bytes = readFile(solo);
    ASSERT_FALSE(solo_bytes.empty());
    EXPECT_EQ(solo_bytes, readFile(base));

    std::remove(solo.c_str());
    std::remove(base.c_str());
}

TEST(FleetEndToEnd, ConcurrentPushesAreInTheFileBeforeTheJoin)
{
    // Four engine threads per worker on four-key leases push
    // concurrently, in any order. Every acknowledged push is appended
    // to the canonical file before its `done`, so at drain the file
    // already holds every row - the join only compacts it to the
    // solo bytes, and leaves no other file of its family behind.
    const std::string solo = tempPath("store_solo.csv");
    const std::string base = tempPath("store_fleet.csv");
    const std::string sock = tempPath("store.sock");
    std::remove(solo.c_str());
    std::remove(base.c_str());

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
    RunCache store(base);
    SweepPlan plan = planSweep(grid, store);
    FleetServer server(sock,
                       FleetQueue(plan.costs, plan.pending,
                                  FleetConfig{4, 10000}),
                       hash, store);
    server.start();

    std::vector<std::thread> workers;
    for (unsigned i = 0; i < 2; ++i) {
        workers.emplace_back([&, i] {
            SweepEngine engine{std::string()};
            FleetClient client(sock, i, hash);
            engine.runFleet(grid, client, 4);
        });
    }
    for (std::thread &t : workers)
        t.join();
    EXPECT_TRUE(server.drained());
    server.stop();

    {
        RunCache on_disk{std::string()};
        on_disk.mergeFile(base);
        EXPECT_EQ(on_disk.size(), grid.size());
        EXPECT_EQ(on_disk.parseErrors(), 0u);
    }
    ASSERT_TRUE(store.saveNow());
    const std::string solo_bytes = readFile(solo);
    ASSERT_FALSE(solo_bytes.empty());
    EXPECT_EQ(solo_bytes, readFile(base));

    const std::filesystem::path canonical(base);
    const std::string family = canonical.filename().string() + ".";
    for (const auto &entry : std::filesystem::directory_iterator(
             canonical.parent_path())) {
        EXPECT_NE(entry.path().filename().string().rfind(family, 0), 0u)
            << entry.path() << " survived the join";
    }

    std::remove(solo.c_str());
    std::remove(base.c_str());
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
    std::remove(base.c_str());

    const auto grid = smallGrid();
    {
        SweepEngine engine(solo);
        engine.run(grid);
    }

    const std::uint64_t hash = gridFingerprint(grid);
    RunCache store(base);
    SweepPlan plan = planSweep(grid, store);
    FleetServer server(sock,
                       FleetQueue(plan.costs, plan.pending,
                                  FleetConfig{1, 500}),
                       hash, store);

    // Fork the victim worker *before* the server spawns any thread:
    // the child is single-threaded at fork and builds its own
    // engine, client, and renewer from scratch.
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Worker 0, slowed so the parent can SIGKILL it mid-run. The
        // client ctor retries connecting while the parent binds.
        SweepEngine engine{std::string()};
        engine.setInjectedRunDelayMs(200);
        FleetClient client(sock, 0, hash);
        engine.runFleet(grid, client, 1);
        _exit(0);
    }

    server.start();

    // Wait until worker 0 has pushed at least one row - the
    // crash-safety contract says the row reached the coordinator's
    // file before the matching `done` - then kill it dead mid-lease.
    bool pushed = false;
    for (int i = 0; i < 3000 && !pushed; ++i) {
        pushed = server.pushTotals().pushes > 0;
        if (!pushed)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(pushed) << "worker 0 never pushed a row";
    EXPECT_TRUE(WIFSIGNALED(status));

    // Worker 1 takes over: the victim's outstanding lease expires
    // (500 ms renew deadline), its keys requeue, and the survivor
    // drains the grid.
    {
        SweepEngine engine{std::string()};
        FleetClient client(sock, 1, hash);
        engine.runFleet(grid, client, 1);
    }
    EXPECT_TRUE(server.drained());
    server.stop();

    // The dead worker's pushes plus the survivor's compact into
    // exactly the single-process file: keys pushed twice (pushed,
    // never reported) merge as byte-identical duplicates.
    ASSERT_TRUE(store.saveNow());
    const std::string solo_bytes = readFile(solo);
    ASSERT_FALSE(solo_bytes.empty());
    EXPECT_EQ(solo_bytes, readFile(base));

    std::remove(solo.c_str());
    std::remove(base.c_str());
}

// ---------------------------------------------------------------------
// Through the real CLI: workers write no file
// ---------------------------------------------------------------------

namespace
{

/** migc_sweep next to this test binary, or empty when it was not
 *  built (the sanitizer jobs build without the bench binaries). */
std::string
migcSweepBinary()
{
    std::error_code ec;
    const std::filesystem::path self =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    if (ec)
        return "";
    const std::filesystem::path bin = self.parent_path() / "migc_sweep";
    return std::filesystem::exists(bin, ec) ? bin.string() : "";
}

/** Start @p args (args[0] is the binary) in directory @p cwd with
 *  its output discarded. */
pid_t
spawnQuiet(const std::vector<std::string> &args, const std::string &cwd)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        if (::chdir(cwd.c_str()) != 0)
            _exit(126);
        const int null = ::open("/dev/null", O_WRONLY);
        ::dup2(null, STDOUT_FILENO);
        ::dup2(null, STDERR_FILENO);
        std::vector<char *> argv;
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        _exit(127);
    }
    return pid;
}

/** @p pid's exit status, or -1 when it did not exit normally. */
int
waitExit(pid_t pid)
{
    int status = 0;
    if (pid <= 0 || ::waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

} // namespace

TEST(FleetCli, WorkersLeaveTheirCacheDirectoriesEmpty)
{
    // A listening coordinator and two hand-started workers, each
    // worker run from an empty directory of its own. A worker keeps
    // its rows in memory and pushes them, so after the fleet both
    // worker directories are still empty and the coordinator's cache
    // alone holds the solo sweep's bytes.
    const std::string bin = migcSweepBinary();
    if (bin.empty())
        GTEST_SKIP() << "migc_sweep was not built next to this test";
    namespace fs = std::filesystem;
    const fs::path root = tempPath("cli");
    fs::remove_all(root);
    for (const char *dir : {"coord", "w0", "w1"})
        fs::create_directories(root / dir);
    const std::string sock = "unix:" + (root / "fleet.sock").string();
    auto sweep = [&](std::vector<std::string> extra) {
        std::vector<std::string> args{
            bin,        "--config", "test",   "--workloads",
            "FwSoft,FwBN", "--policies", "Uncached,CacheR,CacheRW"};
        args.insert(args.end(), extra.begin(), extra.end());
        return args;
    };

    ASSERT_EQ(waitExit(spawnQuiet(
                  sweep({"--cache", (root / "solo.v4").string()}),
                  root.string())),
              0);
    const pid_t coord = spawnQuiet(
        sweep({"--cache", (root / "coord" / "fleet.v4").string(),
               "--shards", "2", "--listen", sock}),
        (root / "coord").string());
    std::vector<pid_t> workers;
    for (const char *i : {"0", "1"}) {
        const fs::path dir = root / (std::string("w") + i);
        workers.push_back(spawnQuiet(
            sweep({"--fleet", sock, "--shard-index", i}),
            dir.string()));
    }
    for (pid_t w : workers)
        EXPECT_EQ(waitExit(w), 0);
    EXPECT_EQ(waitExit(coord), 0);

    for (const char *dir : {"w0", "w1"})
        EXPECT_TRUE(fs::is_empty(root / dir)) << dir << " holds a file";
    const std::string solo_bytes = readFile((root / "solo.v4").string());
    ASSERT_FALSE(solo_bytes.empty());
    EXPECT_EQ(readFile((root / "coord" / "fleet.v4").string()),
              solo_bytes);
    fs::remove_all(root);
}

TEST(FleetCli, RefusesResumeAndAWorkersCache)
{
    // --resume did nothing (every rerun resumes) and a worker's
    // --cache was never read (a worker keeps its rows in memory), so
    // both are refused instead of silently accepted. --convert, which
    // migrated text caches, is gone, and --export refuses the cache
    // itself: a csv copy there would replace a cache with a file no
    // build reads back. --export also refuses a cache that loads as
    // foreign (an old text cache) rather than write an empty copy.
    // --push is still accepted: the benchmark's fleet passes it.
    const std::string bin = migcSweepBinary();
    if (bin.empty())
        GTEST_SKIP() << "migc_sweep was not built next to this test";
    namespace fs = std::filesystem;
    const fs::path dir = tempPath("cli_refused");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string cwd = dir.string();
    const std::string sock = "unix:" + (dir / "none.sock").string();
    {
        RunMetrics row;
        row.workload = std::string("FwSoft");
        row.policy = std::string("CacheR");
        RunCache cache((dir / "c.v4").string());
        cache.insert("sig", row);
        // The v3 text an older build wrote for the same row.
        ASSERT_TRUE(cache.exportFile((dir / "old.csv").string(),
                                     CacheFormat::csv));
    }
    const std::string cache_bytes = readFile((dir / "c.v4").string());
    ASSERT_FALSE(cache_bytes.empty());

    const std::vector<std::vector<std::string>> refused = {
        {bin, "--resume"},
        {bin, "--fleet", sock, "--shard-index", "0", "--cache", "w.v4"},
        {bin, "--cache", "c.v4", "--convert"},
        {bin, "--cache", "c.v4", "--export", "c.v4", "--cache-format",
         "csv"},
        {bin, "--cache", "c.v4", "--export", "./c.v4", "--cache-format",
         "csv"},
        {bin, "--cache", "old.csv", "--export", "out.v4"},
    };
    for (const auto &args : refused) {
        std::string flags;
        for (std::size_t i = 1; i < args.size(); ++i) {
            flags += ' ';
            flags += args[i];
        }
        SCOPED_TRACE(flags);
        EXPECT_EQ(waitExit(spawnQuiet(args, cwd)), 1);
        EXPECT_EQ(readFile((dir / "c.v4").string()), cache_bytes);
    }
    EXPECT_EQ(waitExit(spawnQuiet({bin, "--push", "--help"}, cwd)), 0);
    // Nothing but the two caches: no worker file, socket or export.
    EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                            fs::directory_iterator()),
              2);
    fs::remove_all(dir);
}
