/** @file Chaos suite for the multi-host fleet: a deterministic
 *  fault-injection matrix ({drop, truncate, duplicate, delay,
 *  corrupt} x {lease, done, renew, push}) driven through the
 *  transport shim (support/fault_stream.hh) over real localhost-TCP
 *  sockets, proving the coordinator's canonical cache stays
 *  byte-identical to a single-process sweep under every injected
 *  failure. Plus: the shim's replay determinism (same seed +
 *  schedule = same byte trace, independent of read chunking), the
 *  push traffic being one one-row segment per completion, a rerun
 *  over a canonical file whose last segment is torn leasing only the
 *  lost keys, the connect-failure fatal naming the underlying OS
 *  error, and a SIGKILLed TCP worker whose takeover still ends
 *  byte-identical. */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "core/cache_v4.hh"
#include "core/fleet.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "serve/transport.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "support/cache_file.hh"
#include "support/env.hh"
#include "support/fault_stream.hh"
#include "support/small_grid.hh"

using namespace migc;
using namespace migc::test;

// See tests/test_fleet.cc: TSan cannot follow a forked child that
// starts threads, so the SIGKILL test skips itself there.
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

/** Single-process reference bytes for smallGrid(), computed once. */
const std::string &
soloBytes()
{
    static const std::string bytes = [] {
        const std::string solo = tempPath("solo_ref.csv");
        std::remove(solo.c_str());
        {
            SweepEngine engine(solo);
            engine.run(smallGrid());
        }
        std::string b = readFile(solo);
        std::remove(solo.c_str());
        return b;
    }();
    return bytes;
}

struct FleetResult
{
    std::string mergedBytes;
    std::string trace;
    std::uint64_t pushes = 0;
    bool drained = false;
};

/**
 * One chaos run: a 2-worker fleet over tcp:127.0.0.1:0 with
 * memory-only workers (only `push` can move a row to the
 * coordinator), worker 0's connections wrapped in the fault shim
 * with @p faults. Returns the coordinator's canonical cache after
 * the join.
 */
FleetResult
runFaultedFleet(const std::string &tag,
                const std::vector<StreamFault> &faults,
                unsigned worker0DelayMs, std::uint64_t renewMs)
{
    const auto grid = smallGrid();
    const std::uint64_t hash = gridFingerprint(grid);
    const std::string coord = tempPath(tag + "_coord.csv");
    std::remove(coord.c_str());

    RunCache store(coord);
    SweepPlan plan = planSweep(grid, store);
    FleetServer server("tcp:127.0.0.1:0",
                       FleetQueue(plan.costs, plan.pending,
                                  FleetConfig{1, renewMs}),
                       hash, store);
    server.start();
    const std::string spec = server.boundEndpoint().spec();

    auto fplan = std::make_shared<FaultPlan>();
    fplan->faults = faults;
    fplan->seed = 0xC0FFEEu;

    std::vector<std::thread> workers;
    for (unsigned i = 0; i < 2; ++i) {
        workers.emplace_back([&, i] {
            SweepEngine engine{std::string()};
            engine.setInjectedRunDelayMs(i == 0 ? worker0DelayMs
                                                : 0);
            FleetClientOptions opts;
            opts.gridSize = grid.size();
            if (i == 0) {
                opts.wrap = [fplan](std::unique_ptr<Stream> s) {
                    return wrapFaulty(std::move(s), fplan);
                };
            }
            FleetClient client(spec, i, hash, opts);
            engine.runFleet(grid, client, 1);
        });
    }
    for (std::thread &t : workers)
        t.join();

    FleetResult r;
    r.drained = server.drained();
    r.pushes = server.pushTotals().pushes;
    server.stop();
    r.trace = fplan->trace();

    EXPECT_TRUE(store.saveNow());
    r.mergedBytes = readFile(coord);
    std::remove(coord.c_str());
    return r;
}

struct VerbTarget
{
    const char *name;
    const char *pattern;   ///< tx-stream trigger for the shim
    unsigned delayMs;      ///< worker 0 straggler delay
    std::uint64_t renewMs; ///< coordinator renew deadline
};

/** The verb column of the matrix. Renew needs a short deadline and
 *  a slowed worker or the background renewer never has a lease to
 *  renew; the others fire on any drain. */
const VerbTarget kVerbTargets[] = {
    {"lease", "lease ", 0, 10000},
    {"done", "done ", 0, 10000},
    {"renew", "renew ", 250, 300},
    {"push", "push ", 0, 10000},
};

/** Run one fault op across every verb target; every schedule must
 *  fire (visible in the trace) and still merge byte-identical. */
void
runMatrixForOp(StreamFault::Op op, const char *opName,
               const char *traceMark)
{
    for (const VerbTarget &v : kVerbTargets) {
        SCOPED_TRACE(std::string(opName) + " x " + v.name);
        StreamFault f;
        f.op = op;
        f.dir = StreamFault::Dir::tx;
        f.conn = 0;
        f.match = v.pattern;
        f.matchNth = 1;
        // Inside the verb word: the corruption can garble the frame
        // (or split it with an injected newline) but never forge a
        // different valid verb.
        f.offset = 2;
        f.len = 3;
        f.holdBytes = 6;
        FleetResult r = runFaultedFleet(
            std::string(opName) + "_" + v.name, {f}, v.delayMs,
            v.renewMs);
        EXPECT_TRUE(r.drained);
        EXPECT_GE(r.pushes, 1u);
        EXPECT_NE(r.trace.find(traceMark), std::string::npos)
            << "fault never fired; trace:\n" << r.trace;
        ASSERT_FALSE(soloBytes().empty());
        EXPECT_EQ(r.mergedBytes, soloBytes());
    }
}

} // namespace

// ---------------------------------------------------------------------
// The fault matrix: op x verb, merged bytes vs solo every time
// ---------------------------------------------------------------------

TEST(FleetFaultMatrix, Drop)
{
    runMatrixForOp(StreamFault::Op::drop, "drop", "drop");
}

TEST(FleetFaultMatrix, Truncate)
{
    runMatrixForOp(StreamFault::Op::truncate, "truncate",
                   "truncate");
}

TEST(FleetFaultMatrix, Duplicate)
{
    runMatrixForOp(StreamFault::Op::duplicate, "duplicate",
                   "duplicate");
}

TEST(FleetFaultMatrix, Delay)
{
    runMatrixForOp(StreamFault::Op::delay, "delay",
                   "delay-release");
}

TEST(FleetFaultMatrix, Corrupt)
{
    runMatrixForOp(StreamFault::Op::corrupt, "corrupt", "corrupt");
}

TEST(FleetFaultMatrix, PushPayloadFaultsNeverReachTheStore)
{
    // The matrix above hits the push *header*; these land inside
    // the raw payload bytes - the checksum path. A corrupted or
    // reordered payload must bounce off the coordinator (mismatch
    // reply), a torn one must die mid-frame; either way the client
    // retransmits the whole segment and the store ends byte-exact.
    struct OpCase
    {
        StreamFault::Op op;
        const char *name;
        const char *mark;
    };
    const OpCase cases[] = {
        {StreamFault::Op::corrupt, "pcorrupt", "corrupt"},
        {StreamFault::Op::drop, "pdrop", "drop"},
        {StreamFault::Op::truncate, "ptrunc", "truncate"},
        {StreamFault::Op::duplicate, "pdup", "duplicate"},
        {StreamFault::Op::delay, "pdelay", "delay-release"},
    };
    for (const OpCase &c : cases) {
        SCOPED_TRACE(c.name);
        StreamFault f;
        f.op = c.op;
        f.dir = StreamFault::Dir::tx;
        f.conn = 0;
        f.match = "push ";
        f.matchNth = 1;
        // Past the ~25-byte header line: inside the v4 payload.
        f.offset = 64;
        f.len = 16;
        f.holdBytes = 32;
        FleetResult r = runFaultedFleet(c.name, {f}, 0, 10000);
        EXPECT_TRUE(r.drained);
        EXPECT_NE(r.trace.find(c.mark), std::string::npos)
            << "fault never fired; trace:\n" << r.trace;
        EXPECT_EQ(r.mergedBytes, soloBytes());
    }
}

// ---------------------------------------------------------------------
// Shim determinism: same seed + schedule = same byte trace
// ---------------------------------------------------------------------

namespace
{

/** Scripted in-memory peer: read() hands out the scripted input in
 *  fixed-size chunks (to prove chunking cannot change outcomes),
 *  writeAll() lands in a sink string. */
class ScriptStream : public Stream
{
  public:
    ScriptStream(std::string input, std::size_t chunk,
                 std::string *sink)
        : input_(std::move(input)), chunk_(chunk), sink_(sink)
    {
    }

    ssize_t
    read(void *buf, std::size_t n) override
    {
        if (pos_ >= input_.size())
            return 0;
        const std::size_t take =
            std::min({n, chunk_, input_.size() - pos_});
        std::memcpy(buf, input_.data() + pos_, take);
        pos_ += take;
        return static_cast<ssize_t>(take);
    }

    bool
    writeAll(const void *buf, std::size_t n) override
    {
        sink_->append(static_cast<const char *>(buf), n);
        return true;
    }

  private:
    std::string input_;
    std::size_t pos_ = 0;
    std::size_t chunk_;
    std::string *sink_;
};

/** One scripted session through the shim; returns the plan trace
 *  and fills the delivered tx/rx byte strings. */
std::string
runScriptedSession(std::uint64_t seed, std::size_t chunk,
                   std::string *tx, std::string *rx)
{
    auto plan = std::make_shared<FaultPlan>();
    plan->seed = seed;
    StreamFault corrupt_tx;
    corrupt_tx.op = StreamFault::Op::corrupt;
    corrupt_tx.dir = StreamFault::Dir::tx;
    corrupt_tx.match = "lease";
    corrupt_tx.offset = 1;
    corrupt_tx.len = 4;
    StreamFault delay_tx;
    delay_tx.op = StreamFault::Op::delay;
    delay_tx.dir = StreamFault::Dir::tx;
    delay_tx.match = "done";
    delay_tx.offset = 0;
    delay_tx.len = 4;
    delay_tx.holdBytes = 3;
    StreamFault dup_rx;
    dup_rx.op = StreamFault::Op::duplicate;
    dup_rx.dir = StreamFault::Dir::rx;
    dup_rx.offset = 3;
    dup_rx.len = 5;
    StreamFault corrupt_rx;
    corrupt_rx.op = StreamFault::Op::corrupt;
    corrupt_rx.dir = StreamFault::Dir::rx;
    corrupt_rx.offset = 20;
    corrupt_rx.len = 4;
    plan->faults = {corrupt_tx, delay_tx, dup_rx, corrupt_rx};

    tx->clear();
    rx->clear();
    {
        std::unique_ptr<Stream> s = wrapFaulty(
            std::make_unique<ScriptStream>(
                "# lease 1 500 fresh 3 1 4\n# ok\n# drained\n",
                chunk, tx),
            plan);
        s->writeAll(std::string("lease 0 42\n"));
        char buf[8];
        for (int i = 0; i < 5; ++i) {
            ssize_t n = s->read(buf, sizeof(buf));
            if (n <= 0)
                break;
            rx->append(buf, static_cast<std::size_t>(n));
        }
        s->writeAll(std::string("done 0 1 3\n"));
        for (;;) {
            ssize_t n = s->read(buf, sizeof(buf));
            if (n <= 0)
                break;
            rx->append(buf, static_cast<std::size_t>(n));
        }
    } // destruction finalizes the per-direction eof/hash trace
    return plan->trace();
}

/** The trace lines mentioning one direction, in order - each
 *  direction's event sequence is chunk-invariant even though the
 *  global tx/rx interleaving follows the caller's read/write
 *  schedule. */
std::string
directionLines(const std::string &trace, const std::string &dir)
{
    std::string out;
    std::istringstream in(trace);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find(" " + dir + " ") != std::string::npos) {
            out += line;
            out += '\n';
        }
    }
    return out;
}

} // namespace

TEST(FleetFaults, ReplayedScheduleProducesIdenticalTrace)
{
    std::string tx1, rx1, tx2, rx2;
    const std::string t1 = runScriptedSession(7, 7, &tx1, &rx1);
    const std::string t2 = runScriptedSession(7, 7, &tx2, &rx2);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(tx1, tx2);
    EXPECT_EQ(rx1, rx2);

    // Every fault really fired and the trace pinned it.
    EXPECT_NE(t1.find("corrupt"), std::string::npos) << t1;
    EXPECT_NE(t1.find("duplicate"), std::string::npos) << t1;
    EXPECT_NE(t1.find("delay-release"), std::string::npos) << t1;
    EXPECT_NE(t1.find("eof"), std::string::npos) << t1;

    // Offsets index the logical stream, so how the peer chunks its
    // reads cannot change a delivered byte, a fault trigger, or a
    // per-direction event sequence. (Only the *interleaving* of the
    // two directions' trace lines follows the caller's read/write
    // schedule - they are independent streams.)
    std::string tx3, rx3;
    const std::string t3 = runScriptedSession(7, 3, &tx3, &rx3);
    EXPECT_EQ(directionLines(t1, "tx"), directionLines(t3, "tx"));
    EXPECT_EQ(directionLines(t1, "rx"), directionLines(t3, "rx"));
    EXPECT_EQ(tx1, tx3);
    EXPECT_EQ(rx1, rx3);

    // A different seed draws different corrupt masks: different
    // delivered bytes, different delivered-byte hashes in the trace.
    std::string tx4, rx4;
    const std::string t4 = runScriptedSession(8, 7, &tx4, &rx4);
    EXPECT_NE(t1, t4);
    EXPECT_NE(tx1, tx4);
}

// ---------------------------------------------------------------------
// The one store: push traffic, and a rerun after a torn append
// ---------------------------------------------------------------------

namespace
{

/** soloBytes()'s rows, loaded into the memory-only cache @p into. */
void
loadSoloRows(RunCache &into)
{
    const std::string path = tempPath("solo_rows.csv");
    writeFile(path, soloBytes());
    into.mergeFile(path);
    std::remove(path.c_str());
}

/** One v4 segment holding @p rows's rows for @p reqs (one config),
 *  sorted as the writer needs - for one request, exactly what a
 *  worker pushes when it finishes that key. */
std::string
segmentFor(const RunCache &rows, std::vector<RunRequest> reqs)
{
    std::sort(reqs.begin(), reqs.end(),
              [](const RunRequest &a, const RunRequest &b) {
                  return std::tie(a.workload, a.policy) <
                         std::tie(b.workload, b.policy);
              });
    const std::string sig = SimConfig::testConfig().signature();
    std::vector<V4RowRef> refs;
    for (const RunRequest &req : reqs) {
        const RunMetrics *m = rows.find(sig, req.workload, req.policy);
        EXPECT_NE(m, nullptr) << req.workload << "/" << req.policy;
        if (m != nullptr)
            refs.push_back(
                V4RowRef{sig, m->workload, m->policy, packV4Row(*m)});
    }
    return buildV4Segment(refs);
}

} // namespace

TEST(FleetFaults, PushedBytesAreOneRowSegmentPerCompletion)
{
    // A worker's whole upstream traffic, read from the shim's
    // per-direction byte count: two lease requests (the grant, then
    // `# drained`) and, per key, one push header, one one-row
    // segment and one done line. Nothing else is sent.
    const auto grid = smallGrid();
    const std::uint64_t hash = gridFingerprint(grid);
    ASSERT_FALSE(soloBytes().empty());
    RunCache solo{std::string()};
    loadSoloRows(solo);

    const std::string coord = tempPath("bytes_coord.csv");
    std::remove(coord.c_str());
    RunCache store(coord);
    SweepPlan plan = planSweep(grid, store);
    // One lease holds the whole grid, and no run gets near the renew
    // deadline, so the worker never renews.
    FleetServer server("tcp:127.0.0.1:0",
                       FleetQueue(plan.costs, plan.pending,
                                  FleetConfig{grid.size(), 600000}),
                       hash, store);
    server.start();
    auto fplan = std::make_shared<FaultPlan>(); // no faults: a counter
    {
        SweepEngine engine{std::string()};
        FleetClientOptions opts;
        opts.wrap = [fplan](std::unique_ptr<Stream> s) {
            return wrapFaulty(std::move(s), fplan);
        };
        FleetClient client(server.boundEndpoint().spec(), 0, hash,
                           opts);
        EXPECT_EQ(engine.runFleet(grid, client, 1).runs, grid.size());
    } // closing the connection writes its byte counts to the trace
    EXPECT_TRUE(server.drained());
    server.stop();
    ASSERT_TRUE(store.saveNow());
    EXPECT_EQ(readFile(coord), soloBytes());
    std::remove(coord.c_str());

    std::uint64_t want =
        2 * csprintf("lease 0 %llu\n",
                     static_cast<unsigned long long>(hash))
                .size();
    for (std::uint32_t key = 0; key < grid.size(); ++key) {
        const std::string seg = segmentFor(solo, {grid[key]});
        want += csprintf("push 0 1 %zu %llu\n", seg.size(),
                         static_cast<unsigned long long>(
                             v4Checksum(seg.data(), seg.size())))
                    .size() +
                seg.size() + csprintf("done 0 1 %u\n", key).size();
    }
    const std::string trace = fplan->trace();
    EXPECT_EQ(trace.find("conn1"), std::string::npos)
        << "the worker reconnected:\n" << trace;
    const std::string mark = "conn0 tx eof bytes=";
    const std::size_t at = trace.find(mark);
    ASSERT_NE(at, std::string::npos) << trace;
    EXPECT_EQ(std::strtoull(trace.c_str() + at + mark.size(), nullptr,
                            10),
              want)
        << trace;
}

TEST(FleetFaults, TornLastSegmentRerunLeasesOnlyTheLostKeys)
{
    // A coordinator killed mid-append leaves its canonical file with
    // a torn last segment. The rerun's load drops that segment loudly
    // and keeps the rest, so only the torn keys are leased again; its
    // first push compacts the file instead of appending after the
    // garbage, and the join ends at the solo bytes.
    const auto grid = smallGrid();
    const std::uint64_t hash = gridFingerprint(grid);
    ASSERT_FALSE(soloBytes().empty());
    RunCache solo{std::string()};
    loadSoloRows(solo);
    ASSERT_EQ(solo.size(), grid.size());

    // Keys 0-3 in one clean segment, then the append of keys 4 and 5
    // torn 21 bytes short of its end.
    const std::string base = tempPath("torn_base.csv");
    const std::string lost = segmentFor(solo, {grid[4], grid[5]});
    writeFile(base,
              segmentFor(solo, {grid[0], grid[1], grid[2], grid[3]}) +
                  lost.substr(0, lost.size() - 21));

    RunCache store(base);
    EXPECT_EQ(store.size(), 4u);
    EXPECT_EQ(store.parseErrors(), 1u);
    SweepPlan plan = planSweep(grid, store);
    EXPECT_EQ(plan.pending, (std::vector<std::uint32_t>{4, 5}));

    FleetServer server("tcp:127.0.0.1:0",
                       FleetQueue(plan.costs, plan.pending,
                                  FleetConfig{1, 10000}),
                       hash, store);
    server.start();
    {
        SweepEngine engine{std::string()};
        FleetClient client(server.boundEndpoint().spec(), 0, hash);
        EXPECT_EQ(engine.runFleet(grid, client, 1).runs, 2u);
    }
    EXPECT_TRUE(server.drained());
    server.stop();

    // Before the join, every segment of the file parses: nothing was
    // appended after the torn bytes.
    {
        RunCache on_disk{std::string()};
        on_disk.mergeFile(base);
        EXPECT_EQ(on_disk.parseErrors(), 0u);
        EXPECT_EQ(on_disk.size(), grid.size());
    }
    ASSERT_TRUE(store.saveNow());
    EXPECT_EQ(readFile(base), soloBytes());
    std::remove(base.c_str());
}

// ---------------------------------------------------------------------
// Connect failure surfaces the underlying OS error
// ---------------------------------------------------------------------

TEST(FleetFaultsDeathTest, ConnectFailureNamesTheOsError)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    FleetClientOptions opts;
    opts.connectAttempts = 2;
    opts.connectDelayMs = 1;

    // A unix endpoint with no socket file: the final fatal must say
    // *why* (ENOENT), not just "could not reach".
    const std::string missing = tempPath("no_such.sock");
    std::remove(missing.c_str());
    EXPECT_EXIT({ FleetClient c(missing, 0, 1, opts); },
                ::testing::ExitedWithCode(1),
                "No such file or directory");

    // A TCP port that just stopped listening: ECONNREFUSED, by name.
    EXPECT_EXIT(
        {
            Listener probe;
            probe.bind(parseEndpoint("tcp:127.0.0.1:0"));
            const std::string target = probe.bound().spec();
            probe.stop();
            FleetClient c(target, 0, 1, opts);
        },
        ::testing::ExitedWithCode(1), "Connection refused");
}

// ---------------------------------------------------------------------
// A vanished peer fails the write, not the process
// ---------------------------------------------------------------------

TEST(FleetFaults, VanishedPeerFailsTheWriteNotTheProcess)
{
    // A client that sends `match default * *` and closes before
    // reading, or a worker SIGKILLed before its reply: the replying
    // side's writes must fail, not raise SIGPIPE (whose default
    // action would kill this whole test binary), and its listener
    // must go on accepting.
    const std::string sock = tempPath("vanish.sock");
    for (const std::string &spec :
         {"unix:" + sock, std::string("tcp:127.0.0.1:0")}) {
        SCOPED_TRACE(spec);
        Listener listener;
        listener.bind(parseEndpoint(spec));
        std::string error;
        std::unique_ptr<Stream> client =
            connectTo(listener.bound(), &error);
        ASSERT_NE(client, nullptr) << error;
        std::unique_ptr<Stream> served = listener.accept();
        ASSERT_NE(served, nullptr);
        client.reset(); // gone before reading a byte

        // TCP may buffer the first write before the peer's reset
        // arrives; a later one must fail.
        const std::string reply(64 * 1024, 'r');
        bool wrote = true;
        for (int i = 0; i < 64 && wrote; ++i)
            wrote = served->writeAll(reply);
        EXPECT_FALSE(wrote) << "writes to a closed peer kept succeeding";

        std::unique_ptr<Stream> next = connectTo(listener.bound(), &error);
        ASSERT_NE(next, nullptr) << error;
        std::unique_ptr<Stream> accepted = listener.accept();
        ASSERT_NE(accepted, nullptr);
        ASSERT_TRUE(accepted->writeAll(std::string("# alive\n")));
        std::string got;
        char buf[16];
        while (got.size() < 8) {
            const ssize_t n = next->read(buf, sizeof(buf));
            ASSERT_GT(n, 0);
            got.append(buf, static_cast<std::size_t>(n));
        }
        EXPECT_EQ(got, "# alive\n");
        listener.stop();
    }
}

// ---------------------------------------------------------------------
// SIGKILL + takeover over TCP
// ---------------------------------------------------------------------

TEST(FleetFaults, TcpSigkilledWorkerPlusTakeoverMatchesSolo)
{
#ifdef MIGC_FLEET_TSAN
    GTEST_SKIP() << "fork + threads is unsupported under TSan";
#endif
    const auto grid = smallGrid();
    const std::uint64_t hash = gridFingerprint(grid);
    ASSERT_FALSE(soloBytes().empty());

    const std::string coord = tempPath("kill_coord.csv");
    std::remove(coord.c_str());

    RunCache store(coord);
    SweepPlan plan = planSweep(grid, store);
    FleetServer server("tcp:127.0.0.1:0",
                       FleetQueue(plan.costs, plan.pending,
                                  FleetConfig{1, 500}),
                       hash, store);

    // Fork the victim *before* the server spawns any thread; the
    // kernel-chosen port is only known after start(), so it travels
    // to the single-threaded child over a pipe.
    int pipefd[2];
    ASSERT_EQ(::pipe(pipefd), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(pipefd[1]);
        std::string spec;
        char c;
        while (::read(pipefd[0], &c, 1) == 1 && c != '\n')
            spec.push_back(c);
        ::close(pipefd[0]);
        SweepEngine engine{std::string()};
        engine.setInjectedRunDelayMs(200);
        FleetClientOptions opts;
        opts.gridSize = grid.size();
        FleetClient client(spec, 0, hash, opts);
        engine.runFleet(grid, client, 1);
        _exit(0);
    }
    ::close(pipefd[0]);
    server.start();
    const std::string specLine =
        server.boundEndpoint().spec() + "\n";
    ASSERT_EQ(::write(pipefd[1], specLine.data(), specLine.size()),
              static_cast<ssize_t>(specLine.size()));
    ::close(pipefd[1]);

    // Push-before-done means a stored push is proof the victim's
    // first row is in the coordinator's file. Then kill it dead
    // mid-lease.
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

    // The survivor takes over on the same TCP endpoint: the
    // victim's lease expires (500 ms), its keys requeue, the grid
    // drains.
    {
        SweepEngine engine{std::string()};
        FleetClientOptions opts;
        opts.gridSize = grid.size();
        FleetClient client(server.boundEndpoint().spec(), 1, hash,
                           opts);
        engine.runFleet(grid, client, 1);
    }
    EXPECT_TRUE(server.drained());
    server.stop();

    // The workers wrote no file, so the coordinator's cache alone is
    // the result. Keys the victim pushed but never reported were
    // re-run by the survivor and merged as byte-identical duplicates.
    ASSERT_TRUE(store.saveNow());
    EXPECT_EQ(readFile(coord), soloBytes());
    std::remove(coord.c_str());
}
