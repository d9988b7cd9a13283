/**
 * @file
 * The v4 binary columnar cache format: round-trip exactness, byte
 * determinism, O(fresh) checkpoint appends, torn-write rejection and
 * recovery, format migration (v3 -> v4) with byte-identical CSV
 * export, and the zero-copy mapped snapshot's parity with the parsed
 * one. See src/core/cache_v4.hh and docs/SWEEPS.md.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cache_snapshot.hh"
#include "core/cache_v4.hh"
#include "core/metrics.hh"
#include "core/sweep_engine.hh"
#include "support/env.hh"

using namespace migc;
using migc::test::tempPath;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** "<prefix><i>". Built from a std::string temporary: GCC 12 warns
 *  (-Wrestrict, a false positive) on `"w" + std::to_string(i)`. */
std::string
numbered(const char *prefix, int i)
{
    return std::string(prefix) + std::to_string(i);
}

/** A row with doubles no text format would round-trip exactly. */
RunMetrics
awkwardRow(const std::string &workload, const std::string &policy)
{
    RunMetrics m;
    m.workload = workload;
    m.policy = policy;
    m.execTicks = 123456789012345ull;
    m.execSeconds = 1.0 / 3.0;
    m.gpuMemRequests = 2.0 / 7.0;
    m.dramReads = 1e-300;
    m.dramWrites = 9.87654321e200;
    m.dramAccesses = 0.1;
    m.dramRowHitRate = 0.30000000000000004; // 0.1 + 0.2
    m.cacheStallCycles = 1.0;
    m.stallsPerRequest = 3.0e-9;
    m.vops = 7.0;
    m.gvops = 1234.5678901234567;
    m.gmrps = 2.5;
    m.l1Hits = 42.0;
    m.simEvents = 1e6 + 0.25;
    return m;
}

/** A plain deterministic row. Whole-number doubles only, so the
 *  row survives a v3 text round trip bit-exactly. */
RunMetrics
simpleRow(const std::string &workload, const std::string &policy,
          double seedv)
{
    RunMetrics m;
    m.workload = workload;
    m.policy = policy;
    m.execTicks = static_cast<Tick>(1000 + seedv);
    m.execSeconds = seedv;
    m.dramAccesses = seedv + 1.0;
    m.simEvents = seedv * 3 + 1;
    return m;
}

} // namespace

// ---------------------------------------------------------------
// Round-trip and byte determinism
// ---------------------------------------------------------------

TEST(CacheV4, RoundTripPreservesExactDoubles)
{
    const std::string path = tempPath("roundtrip");
    std::remove(path.c_str());
    const RunMetrics planted = awkwardRow("FwSoft", "CacheRW");
    {
        RunCache rc(path, 100);
        rc.insert("sig-a", planted);
        rc.flush();
    }
    RunCache rc(path, 100);
    const RunMetrics *held = rc.find("sig-a", "FwSoft", "CacheRW");
    ASSERT_NE(held, nullptr);
    // Exact equality, not near-equality: the binary format stores
    // the doubles bit-for-bit, unlike the rounding v3 text columns.
    EXPECT_EQ(held->execTicks, planted.execTicks);
    EXPECT_EQ(held->execSeconds, planted.execSeconds);
    EXPECT_EQ(held->gpuMemRequests, planted.gpuMemRequests);
    EXPECT_EQ(held->dramReads, planted.dramReads);
    EXPECT_EQ(held->dramWrites, planted.dramWrites);
    EXPECT_EQ(held->dramRowHitRate, planted.dramRowHitRate);
    EXPECT_EQ(held->stallsPerRequest, planted.stallsPerRequest);
    EXPECT_EQ(held->gvops, planted.gvops);
    EXPECT_EQ(held->simEvents, planted.simEvents);
    std::remove(path.c_str());
}

TEST(CacheV4, FileBytesAreAPureFunctionOfTheRowSet)
{
    // Same rows inserted in different orders, different checkpoint
    // histories: the flushed files must be byte-identical.
    const std::string a = tempPath("determ_a");
    const std::string b = tempPath("determ_b");
    std::remove(a.c_str());
    std::remove(b.c_str());

    std::vector<std::pair<std::string, RunMetrics>> rows;
    for (int i = 0; i < 20; ++i) {
        const std::string sig = i % 3 ? "sig-x" : "sig-y";
        rows.emplace_back(
            sig, simpleRow(numbered("w", i % 5), numbered("p", i / 5),
                           i * 7.0));
    }

    {
        RunCache rc(a, 1000);
        for (const auto &[sig, m] : rows)
            rc.insert(sig, m);
        rc.flush();
    }
    {
        // Reverse order, tiny checkpoint interval (many appends).
        RunCache rc(b, 2);
        for (auto it = rows.rbegin(); it != rows.rend(); ++it)
            rc.insert(it->first, it->second);
        rc.flush();
    }
    EXPECT_EQ(readFile(a), readFile(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
}

// ---------------------------------------------------------------
// Checkpoints append; flush compacts
// ---------------------------------------------------------------

TEST(CacheV4, CheckpointAppendsSegmentsInsteadOfRewriting)
{
    const std::string path = tempPath("appends");
    std::remove(path.c_str());
    RunCache rc(path, 1000);

    rc.insert("sig-a", simpleRow("w0", "p0", 1));
    rc.insert("sig-a", simpleRow("w1", "p0", 2));
    rc.checkpoint(); // absent file: first durable write compacts
    EXPECT_EQ(v4SegmentCount(path), 1u);
    const std::string after_first = readFile(path);

    rc.insert("sig-b", simpleRow("w0", "p0", 3));
    rc.checkpoint(); // clean v4 file: O(fresh) append
    EXPECT_EQ(v4SegmentCount(path), 2u);
    // The first segment's bytes are untouched - the checkpoint only
    // appended.
    EXPECT_EQ(readFile(path).compare(0, after_first.size(),
                                     after_first),
              0);

    rc.insert("sig-c", simpleRow("w9", "p9", 4));
    rc.checkpoint();
    EXPECT_EQ(v4SegmentCount(path), 3u);

    // A fresh cache reads the appended file whole.
    {
        RunCache other(path, 1000);
        EXPECT_EQ(other.size(), 4u);
        EXPECT_EQ(other.parseErrors(), 0u);
        EXPECT_NE(other.find("sig-c", "w9", "p9"), nullptr);
    }

    // flush() compacts: one canonical segment, mmap-servable.
    rc.flush();
    EXPECT_EQ(v4SegmentCount(path), 1u);
    std::string why;
    EXPECT_NE(MappedCacheV4::map(path, &why), nullptr) << why;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Torn writes: rejection and recovery
// ---------------------------------------------------------------

TEST(CacheV4, TruncatedFooterIsRejectedLoudly)
{
    const std::string path = tempPath("truncated");
    std::remove(path.c_str());
    {
        RunCache rc(path, 100);
        for (int i = 0; i < 5; ++i)
            rc.insert("sig-a", simpleRow(numbered("w", i), "p0", i));
        rc.flush();
    }
    const std::string clean = readFile(path);
    writeFile(path, clean.substr(0, clean.size() - 9));

    // The parsing loader refuses the damaged segment and counts the
    // loss; nothing is served from it.
    RunCache rc(path, 100);
    EXPECT_EQ(rc.size(), 0u);
    EXPECT_GE(rc.parseErrors(), 1u);

    // The zero-copy mapper refuses it outright.
    std::string why;
    EXPECT_EQ(MappedCacheV4::map(path, &why), nullptr);
    EXPECT_FALSE(why.empty());
    std::remove(path.c_str());
}

TEST(CacheV4, CorruptedByteFailsTheChecksum)
{
    const std::string path = tempPath("corrupt");
    std::remove(path.c_str());
    {
        RunCache rc(path, 100);
        rc.insert("sig-a", awkwardRow("FwSoft", "CacheRW"));
        rc.flush();
    }
    std::string bytes = readFile(path);
    bytes[bytes.size() / 2] ^= 0x40; // flip one bit mid-file
    writeFile(path, bytes);

    RunCache rc(path, 100);
    EXPECT_EQ(rc.size(), 0u);
    EXPECT_GE(rc.parseErrors(), 1u);
    std::string why;
    EXPECT_EQ(MappedCacheV4::map(path, &why), nullptr);
    std::remove(path.c_str());
}

TEST(CacheV4, CrashMidAppendLosesOnlyTheTornSegment)
{
    const std::string path = tempPath("torn_append");
    std::remove(path.c_str());

    // A clean two-segment file (one compact write + one append)...
    std::string two_segments;
    {
        RunCache rc(path, 1000);
        rc.insert("sig-a", simpleRow("w0", "p0", 1));
        rc.insert("sig-a", simpleRow("w1", "p0", 2));
        rc.checkpoint();
        rc.insert("sig-b", simpleRow("w2", "p0", 3));
        rc.checkpoint();
        ASSERT_EQ(v4SegmentCount(path), 2u);
        two_segments = readFile(path);
    }
    // ... whose dtor flush then compacted it. Restore the pre-crash
    // two-segment bytes and tear the second append mid-write.
    const std::string torn =
        two_segments.substr(0, two_segments.size() - 21);
    writeFile(path, torn);

    // Reload: the clean first segment survives, the torn tail is a
    // counted parse error, not silent loss of the whole file.
    RunCache rc(path, 1000);
    EXPECT_EQ(rc.size(), 2u);
    EXPECT_GE(rc.parseErrors(), 1u);
    EXPECT_NE(rc.find("sig-a", "w0", "p0"), nullptr);
    EXPECT_EQ(rc.find("sig-b", "w2", "p0"), nullptr);

    // The next durable write must compact (appending after the
    // garbage tail would strand unreachable bytes forever).
    rc.insert("sig-c", simpleRow("w5", "p5", 9));
    rc.checkpoint();
    EXPECT_EQ(v4SegmentCount(path), 1u);
    {
        RunCache healed(path, 1000);
        EXPECT_EQ(healed.size(), 3u);
        EXPECT_EQ(healed.parseErrors(), 0u);
    }

    // And the healed bytes equal a never-crashed cache holding the
    // same rows: crash history does not leak into the file.
    const std::string ref = tempPath("torn_append_ref");
    std::remove(ref.c_str());
    {
        RunCache rr(ref, 1000);
        rr.insert("sig-a", simpleRow("w0", "p0", 1));
        rr.insert("sig-a", simpleRow("w1", "p0", 2));
        rr.insert("sig-c", simpleRow("w5", "p5", 9));
        rr.flush();
    }
    rc.flush();
    EXPECT_EQ(readFile(path), readFile(ref));
    std::remove(path.c_str());
    std::remove(ref.c_str());
}

// ---------------------------------------------------------------
// Format migration
// ---------------------------------------------------------------

TEST(CacheV4, V3LoadSaveExportIsByteIdenticalToTheTextPipeline)
{
    // Write a v3 text cache by hand, the way a pre-v4 build laid it
    // out (sections, then rows, in (sig, workload, policy) order),
    // migrate it through v4, and export back to csv: the exported
    // bytes must equal the original text file exactly.
    const std::string v3 = tempPath("migrate_v3");
    const std::string v4 = tempPath("migrate_v4");
    const std::string out = tempPath("migrate_out");
    std::remove(v4.c_str());
    std::remove(out.c_str());
    std::map<std::string, std::map<std::string, RunMetrics>> by_sig;
    for (int i = 0; i < 12; ++i) {
        std::string wl = "w";
        wl += std::to_string(i);
        by_sig[i % 2 ? "sig-a" : "sig-b"][wl] = simpleRow(wl, "p", i);
    }
    std::string v3_bytes = "# migc-sweep-v3\n";
    for (const auto &[sig, rows] : by_sig) {
        v3_bytes += "# config " + sig + "\n";
        v3_bytes += RunMetrics::csvHeader() + "\n";
        for (const auto &[wl, m] : rows)
            v3_bytes += m.toCsv() + "\n";
    }
    writeFile(v3, v3_bytes);

    {
        // Load the text file and save a binary copy.
        RunCache rc(v3, 100);
        EXPECT_EQ(rc.size(), 12u);
        EXPECT_STREQ(rc.loadedFormatName(), "v3");
        ASSERT_TRUE(rc.exportFile(v4, CacheFormat::v4));
    }
    {
        RunCache rc(v4, 100);
        EXPECT_EQ(rc.size(), 12u);
        ASSERT_TRUE(rc.exportFile(out, CacheFormat::csv));
    }
    EXPECT_EQ(readFile(out), v3_bytes);

    // The v3 file's own next write is v4.
    {
        RunCache rc(v3, 100);
        ASSERT_TRUE(rc.saveNow());
    }
    EXPECT_EQ(readFile(v3), readFile(v4));
    std::remove(v3.c_str());
    std::remove(v4.c_str());
    std::remove(out.c_str());
}

TEST(CacheV4, V2FileLoadsAsUnrecognizedAndServesNothing)
{
    // The single-config v2 caches of early builds keyed rows by a
    // signature format that aliased structurally different configs.
    // They are no longer read: such a file is ignored like any
    // unrecognized one.
    const std::string path = tempPath("legacy_v2");
    const std::string old_sig =
        "test:cus4:l2x4:64kB:ch4:scale0.125:seed1";
    std::string row = simpleRow("FwSoft", "CacheRW", 5).toCsv();
    row = row.substr(0, row.rfind(',')); // no sim_events column
    writeFile(path, "# migc-sweep-v2 " + old_sig +
                        "\nworkload,policy,...legacy header...\n" +
                        row + "\n");

    RunCache rc(path, 100);
    EXPECT_STREQ(rc.loadedFormatName(), "foreign");
    EXPECT_EQ(rc.size(), 0u);
    EXPECT_EQ(rc.find(old_sig, "FwSoft", "CacheRW"), nullptr);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Mapped snapshot parity
// ---------------------------------------------------------------

TEST(CacheV4, MappedSnapshotAnswersExactlyLikeTheParsedOne)
{
    const std::string path = tempPath("parity");
    std::remove(path.c_str());
    RunCache rc(path, 1000);
    for (int s = 0; s < 3; ++s)
        for (int w = 0; w < 4; ++w)
            for (int p = 0; p < 4; ++p)
                rc.insert(numbered("sig-", s),
                          simpleRow(numbered("w", w), numbered("p", p),
                                    s * 16 + w * 4 + p));
    rc.flush();
    auto parsed = rc.snapshot();

    std::string why;
    auto file = MappedCacheV4::map(path, &why);
    ASSERT_NE(file, nullptr) << why;
    auto mapped = CacheSnapshot::fromMappedFile(std::move(file));

    EXPECT_TRUE(mapped->mapped());
    EXPECT_EQ(mapped->rows(), parsed->rows());
    EXPECT_EQ(mapped->sectionCount(), parsed->sectionCount());

    // Exact lookups: same hit set, same serialized row bytes.
    for (int s = 0; s < 3; ++s) {
        for (int w = 0; w < 4; ++w) {
            for (int p = 0; p < 4; ++p) {
                const std::string sig = numbered("sig-", s);
                const std::string wl = numbered("w", w);
                const std::string po = numbered("p", p);
                std::string a, b;
                ASSERT_TRUE(mapped->findCsv(sig, wl, po, a));
                ASSERT_TRUE(parsed->findCsv(sig, wl, po, b));
                EXPECT_EQ(a, b);
            }
        }
    }
    std::string none;
    EXPECT_FALSE(mapped->findCsv("sig-0", "w0", "nope", none));

    // Glob queries: identical multi-line answers, canonical order.
    for (const char *pat : {"*", "w1", "w?", "*2"}) {
        std::string a, b;
        const std::size_t na = mapped->matchCsv("*", pat, "*", a);
        const std::size_t nb = parsed->matchCsv("*", pat, "*", b);
        EXPECT_EQ(na, nb);
        EXPECT_EQ(a, b);
    }

    // Scheduler cost estimates agree (max simEvents per key).
    EXPECT_EQ(mapped->estimateEvents("w3", "p3"),
              parsed->estimateEvents("w3", "p3"));
    EXPECT_EQ(mapped->estimateEvents("w0", "absent"),
              parsed->estimateEvents("w0", "absent"));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Glob matcher: adversarial input stays linear-ish
// ---------------------------------------------------------------

TEST(GlobMatch, AdversarialStarChainsDoNotBlowUp)
{
    // The classic exponential killer for recursive matchers:
    // many '*'s that each have to try every split point, against a
    // text that almost matches. The iterative matcher is
    // O(|pattern| * |text|); give it a generous wall-clock bound
    // that any backtracking blowup would miss by orders of
    // magnitude.
    const std::string text(4000, 'a');
    std::string pattern;
    for (int i = 0; i < 40; ++i)
        pattern += "a*";
    pattern += 'b'; // never matches: text has no 'b'

    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(globMatch(pattern, text));
    EXPECT_TRUE(globMatch(pattern + "*", text + 'b'));
    EXPECT_FALSE(globMatch("*a?b*", text));
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(secs, 5.0) << "glob matching went super-linear";

    // And the basics still hold.
    EXPECT_TRUE(globMatch("*", ""));
    EXPECT_TRUE(globMatch("a*c", "abc"));
    EXPECT_FALSE(globMatch("a*c", "abd"));
    EXPECT_TRUE(globMatch("?*?", "ab"));
    EXPECT_FALSE(globMatch("?*?", "a"));
}
