/** @file Seeded, deterministic fuzz of the serve/fleet wire
 *  protocol: parseServeRequest must never crash and never accept a
 *  malformed frame (every accepted request satisfies its verb's
 *  arity and numeric bounds), across random byte lines, every prefix
 *  of every valid line, and seeded mutations of valid frames. The
 *  live half drives a real FleetServer socket with binary garbage
 *  and hostile push frames and proves the coordinator still answers
 *  afterwards - and that nothing but a whole v4 segment ever reached
 *  its store. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/cache_v4.hh"
#include "core/fleet.hh"
#include "core/sweep_engine.hh"
#include "serve/serve_protocol.hh"
#include "serve/transport.hh"
#include "sim/rng.hh"
#include "support/env.hh"

using namespace migc;
using migc::test::tempPath;

namespace
{

bool
fileExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return in.good();
}

/** Reference oracle for the protocol's strict-decimal rule: the
 *  whole token, digits only, no sign, no overflow. Independent of
 *  the implementation under test. */
bool
refU64(const std::string &tok, unsigned long long *out = nullptr)
{
    if (tok.empty())
        return false;
    unsigned long long v = 0;
    for (char c : tok) {
        if (c < '0' || c > '9')
            return false;
        unsigned long long d =
            static_cast<unsigned long long>(c - '0');
        if (v > (UINT64_MAX - d) / 10)
            return false;
        v = v * 10 + d;
    }
    if (out != nullptr)
        *out = v;
    return true;
}

/**
 * Parse @p line and check the accepted-frame invariants: whatever
 * kind comes back must be consistent with the tokens actually on the
 * line. This is the "no accepted malformed frames" oracle every fuzz
 * loop funnels through.
 */
void
expectInvariants(const std::string &line)
{
    using K = ServeRequest::Kind;
    const ServeRequest req = parseServeRequest(line);
    const std::vector<std::string> tok = serveTokens(line);

    if (tok.empty() || tok[0][0] == '#') {
        EXPECT_EQ(req.kind, K::none) << "line: " << line;
        return;
    }
    unsigned long long v = 0;
    switch (req.kind) {
      case K::none:
        FAIL() << "non-blank line parsed as none: " << line;
        break;
      case K::error:
        EXPECT_FALSE(req.error.empty()) << "line: " << line;
        break;
      case K::get:
      case K::match:
        EXPECT_EQ(tok.size(), 4u);
        EXPECT_EQ(tok[0], req.kind == K::get ? "get" : "match");
        EXPECT_EQ(req.config, tok[1]);
        EXPECT_EQ(req.workload, tok[2]);
        EXPECT_EQ(req.policy, tok[3]);
        break;
      case K::stats:
      case K::wait:
      case K::help:
        EXPECT_EQ(tok.size(), 1u);
        break;
      case K::lease:
        ASSERT_EQ(tok.size(), 3u);
        EXPECT_EQ(tok[0], "lease");
        ASSERT_TRUE(refU64(tok[1], &v)) << "line: " << line;
        EXPECT_LE(v, 4095u);
        EXPECT_EQ(req.worker, v);
        ASSERT_TRUE(refU64(tok[2], &v));
        EXPECT_EQ(req.gridHash, v);
        break;
      case K::renew:
        ASSERT_EQ(tok.size(), 3u);
        EXPECT_EQ(tok[0], "renew");
        ASSERT_TRUE(refU64(tok[1], &v));
        EXPECT_LE(v, 4095u);
        ASSERT_TRUE(refU64(tok[2], &v));
        EXPECT_EQ(req.leaseId, v);
        break;
      case K::done:
        ASSERT_EQ(tok.size(), 4u);
        EXPECT_EQ(tok[0], "done");
        ASSERT_TRUE(refU64(tok[1], &v));
        EXPECT_LE(v, 4095u);
        ASSERT_TRUE(refU64(tok[3], &v));
        EXPECT_LE(v, 0xffffffffull);
        EXPECT_EQ(req.key, v);
        break;
      case K::push:
        ASSERT_EQ(tok.size(), 5u);
        EXPECT_EQ(tok[0], "push");
        ASSERT_TRUE(refU64(tok[1], &v));
        EXPECT_LE(v, 4095u);
        ASSERT_TRUE(refU64(tok[2], &v));
        EXPECT_EQ(req.leaseId, v);
        ASSERT_TRUE(refU64(tok[3], &v));
        EXPECT_LE(v, kServeMaxPushBytes);
        EXPECT_EQ(req.bytes, v);
        ASSERT_TRUE(refU64(tok[4], &v));
        EXPECT_EQ(req.checksum, v);
        break;
    }
}

/** Valid frames of every verb, used as mutation/truncation seeds. */
const std::vector<std::string> &
validLines()
{
    static const std::vector<std::string> lines = {
        "get default FwSoft CacheRW",
        "match paper * Cache?",
        "stats",
        "wait",
        "help",
        "lease 3 12345678901234567890",
        "done 1 42 7",
        "renew 0 9",
        "push 2 7 128 18446744073709551615",
        "done 1 1 4294967295",
        "push 1 1 1073741824 0",
    };
    return lines;
}

/** One '\n'-terminated reply line out of @p stream via @p buf. */
bool
readLineFrom(Stream &stream, std::string &buf, std::string &line)
{
    for (;;) {
        const std::size_t nl = buf.find('\n');
        if (nl != std::string::npos) {
            line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            return true;
        }
        char chunk[4096];
        ssize_t n = stream.read(chunk, sizeof(chunk));
        if (n <= 0)
            return false;
        buf.append(chunk, static_cast<std::size_t>(n));
    }
}

/** Read reply lines until one starts with @p prefix (in-order
 *  protocol: everything before it answers earlier garbage). */
bool
readUntilPrefix(Stream &stream, std::string &buf,
                const std::string &prefix, std::string &line)
{
    while (readLineFrom(stream, buf, line)) {
        if (line.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------------
// Pure-parser fuzz: seeded, deterministic, no sockets
// ---------------------------------------------------------------------

TEST(ProtocolFuzz, RandomByteLinesNeverCrashOrMisparse)
{
    Rng rng(0xF00DF00Du);
    for (int iter = 0; iter < 20000; ++iter) {
        const std::size_t len = rng.below(120);
        std::string line;
        line.reserve(len);
        for (std::size_t i = 0; i < len; ++i) {
            // Any byte but '\n' (the framing layer owns newlines);
            // NULs, high-bit bytes, and tabs are all fair game.
            char c = static_cast<char>(rng.below(255));
            if (c == '\n')
                c = ' ';
            line.push_back(c);
        }
        expectInvariants(line);
    }
}

TEST(ProtocolFuzz, EveryPrefixOfEveryValidLineParsesSafely)
{
    // A prefix may legitimately still be a valid shorter frame
    // ("lease 3 12" is a lease with a different fingerprint); the
    // invariant is that nothing crashes and nothing malformed is
    // accepted - expectInvariants checks arity and bounds either
    // way.
    for (const std::string &line : validLines()) {
        for (std::size_t cut = 0; cut <= line.size(); ++cut)
            expectInvariants(line.substr(0, cut));
    }
}

TEST(ProtocolFuzz, SeededMutationsOfValidFramesNeverMisparse)
{
    Rng rng(0xBADC0DEu);
    for (int iter = 0; iter < 20000; ++iter) {
        std::string line =
            validLines()[rng.below(validLines().size())];
        const unsigned edits = 1 + static_cast<unsigned>(rng.below(4));
        for (unsigned e = 0; e < edits; ++e) {
            const std::uint64_t kind = rng.below(3);
            const std::size_t at =
                line.empty() ? 0 : rng.below(line.size());
            char c = static_cast<char>(1 + rng.below(254));
            if (c == '\n')
                c = ' ';
            if (kind == 0 && !line.empty())
                line[at] = c; // substitute
            else if (kind == 1)
                line.insert(line.begin() + at, c); // insert
            else if (!line.empty())
                line.erase(line.begin() + at); // delete
        }
        expectInvariants(line);
    }
}

TEST(ProtocolFuzz, NumericEdgeTokensAreRejectedExactly)
{
    using K = ServeRequest::Kind;
    // One past every bound, plus every non-strict-decimal spelling.
    const char *bad[] = {
        "lease 4096 1",
        "done 1 1 4294967296",
        "push 1 1 1073741825 5",            // kServeMaxPushBytes + 1
        "push 1 1 99999999999999999999 0",  // u64 overflow
        "push 1 1 100 18446744073709551616",
        "lease -1 5",
        "lease +1 5",
        "lease 0x10 5",
        "lease 1e9 5",
        "done 1 1 2.0",
        "renew 1 ",
        "push 1 1 100",       // missing checksum
        "push 1 1 100 5 9",   // extra operand
        "fetch 3",            // the removed download verb
    };
    for (const char *line : bad) {
        EXPECT_EQ(parseServeRequest(line).kind, K::error)
            << "accepted: " << line;
        expectInvariants(line);
    }
    // ...and the exact bounds themselves are accepted.
    EXPECT_EQ(parseServeRequest("done 1 1 4294967295").kind, K::done);
    EXPECT_EQ(parseServeRequest("push 1 1 1073741824 0").kind,
              K::push);
    EXPECT_EQ(
        parseServeRequest("lease 4095 18446744073709551615").kind,
        K::lease);
}

// ---------------------------------------------------------------------
// Live-coordinator fuzz: garbage and hostile frames over a real socket
// ---------------------------------------------------------------------

TEST(ProtocolFuzz, LiveCoordinatorSurvivesGarbageAndHostilePushes)
{
    const std::string store_path = tempPath("live_store.csv");
    std::remove(store_path.c_str());
    RunCache store(store_path);

    FleetServer server("tcp:127.0.0.1:0",
                       FleetQueue({1.0}, {0}, FleetConfig{1, 10000}),
                       42, store);
    server.start();

    std::string error;
    std::unique_ptr<Stream> conn =
        connectTo(server.boundEndpoint(), &error);
    ASSERT_NE(conn, nullptr) << error;
    std::string rx;

    // Phase 1: seeded garbage lines, including binary junk. The
    // coordinator may answer each with an error line or nothing
    // (comments); it must never wedge or die.
    Rng rng(0x5EEDu);
    for (int i = 0; i < 300; ++i) {
        const std::size_t len = rng.below(80);
        std::string line;
        for (std::size_t j = 0; j < len; ++j) {
            char c = static_cast<char>(1 + rng.below(254));
            if (c == '\n')
                c = '.';
            line.push_back(c);
        }
        line.push_back('\n');
        ASSERT_TRUE(conn->writeAll(line));
    }

    // Phase 2: a push frame whose payload fails its checksum. The
    // payload must be drained (framing survives) but never stored.
    ASSERT_TRUE(conn->writeAll(std::string("push 7 1 12 999\n") +
                               "HELLO WORLD!"));

    // Phase 3: a push header claiming more than kServeMaxPushBytes
    // is rejected at parse, so no payload is consumed - the stats
    // line right behind it must be answered, not swallowed.
    ASSERT_TRUE(conn->writeAll("push 1 1 2000000000 7\n"));
    ASSERT_TRUE(conn->writeAll("stats\n"));

    std::string line;
    ASSERT_TRUE(readUntilPrefix(*conn, rx, "# fleet total=", line));
    EXPECT_FALSE(fileExists(store_path))
        << "checksum-failed push reached the store";

    // Phase 4: payloads with a correct checksum that are not exactly
    // one v4 segment - arbitrary bytes, and two segments back to
    // back - are refused whole and write nothing.
    auto frame = [](const std::string &payload) {
        return "push 8 1 " + std::to_string(payload.size()) + " " +
               std::to_string(
                   v4Checksum(payload.data(), payload.size())) +
               "\n" + payload;
    };
    std::string junk = "not a real cache file, but 48 raw bytes!\n";
    junk.push_back('\0');
    junk += "binary\xff\x01tail";
    RunMetrics row;
    row.workload = "FwSoft";
    row.policy = "CacheRW";
    row.execTicks = 1234;
    const std::string segment = buildV4Segment(
        {V4RowRef{"sig", row.workload, row.policy, packV4Row(row)}});
    for (const std::string &payload : {junk, segment + segment}) {
        ASSERT_TRUE(conn->writeAll(frame(payload)));
        ASSERT_TRUE(readUntilPrefix(*conn, rx, "# ", line));
        EXPECT_EQ(line.rfind("# error: push payload is not one v4 "
                             "segment",
                             0),
                  0u)
            << line;
    }
    EXPECT_FALSE(fileExists(store_path))
        << "a push that is not one v4 segment reached the store";

    // Phase 5: after all that abuse, one well-formed segment still
    // lands, and it is in the file before the reply.
    ASSERT_TRUE(conn->writeAll(frame(segment)));
    ASSERT_TRUE(readUntilPrefix(*conn, rx, "# pushed ", line));
    EXPECT_EQ(line, "# pushed " + std::to_string(segment.size()));
    {
        RunCache on_disk{std::string()};
        on_disk.mergeFile(store_path);
        ASSERT_NE(on_disk.find("sig", "FwSoft", "CacheRW"), nullptr);
        EXPECT_EQ(on_disk.find("sig", "FwSoft", "CacheRW")->toCsv(),
                  row.toCsv());
        EXPECT_EQ(on_disk.size(), 1u);
    }

    EXPECT_EQ(server.pushTotals().pushes, 1u);
    conn.reset();
    server.stop();
    EXPECT_TRUE(store.saveNow());
    std::remove(store_path.c_str());
}

TEST(ProtocolFuzz, SocketFuzzIsDeterministicAcrossTwoRuns)
{
    // The same seed drives the same garbage byte-for-byte: record
    // both runs' transmitted bytes and compare. (The live test
    // above depends on this to be debuggable at all.)
    auto generate = [](std::uint64_t seed) {
        Rng rng(seed);
        std::string all;
        for (int i = 0; i < 300; ++i) {
            const std::size_t len = rng.below(80);
            for (std::size_t j = 0; j < len; ++j) {
                char c = static_cast<char>(1 + rng.below(254));
                all.push_back(c == '\n' ? '.' : c);
            }
            all.push_back('\n');
        }
        return all;
    };
    EXPECT_EQ(generate(0x5EEDu), generate(0x5EEDu));
    EXPECT_NE(generate(0x5EEDu), generate(0x5EEEu));
}
