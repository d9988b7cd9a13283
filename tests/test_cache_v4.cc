/**
 * @file
 * The v4 binary columnar cache format: round-trip exactness, byte
 * determinism, O(fresh) checkpoint appends, torn-write rejection and
 * recovery, text caches refused as foreign, the byte-identical CSV
 * export, and the zero-copy mapped snapshot's parity with the parsed
 * one. See src/core/cache_v4.hh and docs/SWEEPS.md.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cache_snapshot.hh"
#include "core/cache_v4.hh"
#include "core/metrics.hh"
#include "core/sweep_engine.hh"
#include "support/cache_file.hh"
#include "support/env.hh"

using namespace migc;
using migc::test::readFile;
using migc::test::TempFile;
using migc::test::v4SegmentCount;
using migc::test::writeFile;

namespace
{

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

/** A plain deterministic row. Whole-number doubles only, so its
 *  CSV line is exact. */
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
    const TempFile file("roundtrip");
    const std::string &path = file.path();
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
}

TEST(CacheV4, FileBytesAreAPureFunctionOfTheRowSet)
{
    // Same rows inserted in different orders, different checkpoint
    // histories: the flushed files must be byte-identical.
    const TempFile file_a("determ_a"), file_b("determ_b");
    const std::string &a = file_a.path();
    const std::string &b = file_b.path();

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
}

// ---------------------------------------------------------------
// Checkpoints append; flush compacts
// ---------------------------------------------------------------

TEST(CacheV4, CheckpointAppendsSegmentsInsteadOfRewriting)
{
    const TempFile file("appends");
    const std::string &path = file.path();
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
}

// ---------------------------------------------------------------
// Torn writes: rejection and recovery
// ---------------------------------------------------------------

TEST(CacheV4, TruncatedFooterIsRejectedLoudly)
{
    const TempFile file("truncated");
    const std::string &path = file.path();
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
}

TEST(CacheV4, CorruptedByteFailsTheChecksum)
{
    const TempFile file("corrupt");
    const std::string &path = file.path();
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
}

TEST(CacheV4, CrashMidAppendLosesOnlyTheTornSegment)
{
    const TempFile file("torn_append");
    const std::string &path = file.path();

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
    const TempFile ref_file("torn_append_ref");
    const std::string &ref = ref_file.path();
    {
        RunCache rr(ref, 1000);
        rr.insert("sig-a", simpleRow("w0", "p0", 1));
        rr.insert("sig-a", simpleRow("w1", "p0", 2));
        rr.insert("sig-c", simpleRow("w5", "p5", 9));
        rr.flush();
    }
    rc.flush();
    EXPECT_EQ(readFile(path), readFile(ref));
}

// ---------------------------------------------------------------
// One read format; csv is export-only
// ---------------------------------------------------------------

TEST(CacheV4, CsvExportIsByteIdenticalToTheV3TextFormat)
{
    // Build the v3 text by hand, the way a pre-v4 build laid it out
    // (sections, then rows, in (sig, workload, policy) order): a v4
    // cache holding the same rows must export exactly these bytes,
    // before and after a round trip through its file.
    const TempFile cache_file("export_v4"), out_file("export_csv");
    const std::string &v4 = cache_file.path();
    const std::string &out = out_file.path();
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

    {
        // Insert in reverse, so only the export's own ordering can
        // produce the canonical text.
        RunCache rc(v4, 100);
        for (auto sit = by_sig.rbegin(); sit != by_sig.rend(); ++sit)
            for (auto rit = sit->second.rbegin();
                 rit != sit->second.rend(); ++rit)
                rc.insert(sit->first, rit->second);
        ASSERT_TRUE(rc.exportFile(out, CacheFormat::csv));
        EXPECT_EQ(readFile(out), v3_bytes);
    }
    const std::string v4_bytes = readFile(v4);
    {
        RunCache rc(v4, 100);
        EXPECT_EQ(rc.size(), 12u);
        ASSERT_TRUE(rc.exportFile(out, CacheFormat::csv));
        EXPECT_EQ(readFile(out), v3_bytes);

        // An export onto the cache itself - by its name or another
        // path to the same file - is refused in either format, and
        // the cache's bytes stay as they were.
        const std::filesystem::path p(v4);
        const std::string alias =
            (p.parent_path() / "." / p.filename()).string();
        for (const std::string &dest : {v4, alias}) {
            EXPECT_FALSE(rc.exportFile(dest, CacheFormat::csv)) << dest;
            EXPECT_FALSE(rc.exportFile(dest, CacheFormat::v4)) << dest;
        }
    }
    EXPECT_EQ(readFile(v4), v4_bytes);
}

TEST(CacheV4, TextCachesLoadAsForeignAndServeNothing)
{
    // v4 is the only format read. The single-config v2 caches of
    // early builds (their signatures aliased structurally different
    // configs) and the multi-config v3 text caches written before v4
    // both load as foreign: nothing is served, no parse error is
    // counted, and the next durable write replaces the text with v4
    // rather than appending after it.
    const std::string old_sig =
        "test:cus4:l2x4:64kB:ch4:scale0.125:seed1";
    const RunMetrics row = simpleRow("FwSoft", "CacheRW", 5);
    std::string v2_row = row.toCsv();
    v2_row = v2_row.substr(0, v2_row.rfind(',')); // no sim_events
    const std::string v2 = "# migc-sweep-v2 " + old_sig +
                           "\nworkload,policy,...legacy header...\n" +
                           v2_row + "\n";
    const std::string v3 = "# migc-sweep-v3\n# config " + old_sig +
                           "\n" + RunMetrics::csvHeader() + "\n" +
                           row.toCsv() + "\n";

    for (const std::string &text : {v2, v3}) {
        SCOPED_TRACE(text.substr(0, text.find('\n')));
        const TempFile file("legacy_text");
        const std::string &path = file.path();
        writeFile(path, text);
        {
            RunCache rc(path, 100);
            EXPECT_STREQ(rc.loadedFormatName(), "foreign");
            EXPECT_EQ(rc.size(), 0u);
            EXPECT_EQ(rc.parseErrors(), 0u);
            EXPECT_EQ(rc.find(old_sig, "FwSoft", "CacheRW"), nullptr);
            rc.insert("sig-new", simpleRow("w0", "p0", 1));
            ASSERT_TRUE(rc.checkpoint());
            EXPECT_EQ(v4SegmentCount(path), 1u);
        }
        RunCache reread(path, 100);
        EXPECT_STREQ(reread.loadedFormatName(), "v4");
        EXPECT_EQ(reread.size(), 1u);
        EXPECT_NE(reread.find("sig-new", "w0", "p0"), nullptr);
    }
}

// ---------------------------------------------------------------
// Mapped snapshot parity
// ---------------------------------------------------------------

TEST(CacheV4, MappedSnapshotAnswersExactlyLikeTheParsedOne)
{
    const TempFile tmp("parity");
    const std::string &path = tmp.path();
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
}

TEST(CacheV4, MatchCsvEqualsABruteForceFilterOnBothSnapshots)
{
    // Names that stress the key ranges a glob's literal prefix picks:
    // names that prefix each other (w1, w10, w1\x7f), bytes >= 0x80,
    // a name holding a literal '?', and a string table whose first
    // and last keys patterns can sort before and after.
    const std::vector<std::string> sigs = {"sigA", "sigA2",
                                           "sig\xc3\xa9", "sigB"};
    const std::vector<std::string> workloads = {
        "w1", "w10", "w1\x7f", "w2", "w?x", "wax", "w\xc3\xa9", "a0"};
    const std::vector<std::string> policies = {
        "p", "p1", "p10", "p1\x7f", "p?", "P\x80", "pz"};

    const TempFile tmp("match_differential");
    const std::string &path = tmp.path();
    // Canonical order is the byte order of (sig, workload, policy).
    std::map<std::vector<std::string>, std::string> all;
    {
        RunCache rc(path, 1000);
        int seq = 0;
        for (std::size_t s = 0; s < sigs.size(); ++s) {
            for (std::size_t w = 0; w < workloads.size(); ++w) {
                for (std::size_t p = 0; p < policies.size(); ++p) {
                    if ((s + 2 * w + 3 * p) % 4 == 0)
                        continue; // sparse: not every key exists
                    const RunMetrics &row = rc.insert(
                        sigs[s],
                        simpleRow(workloads[w], policies[p], ++seq));
                    all[{sigs[s], workloads[w], policies[p]}] =
                        row.toCsv();
                }
            }
        }
        rc.flush();
    }

    std::string why;
    auto file = MappedCacheV4::map(path, &why);
    ASSERT_NE(file, nullptr) << why;
    const auto mapped = CacheSnapshot::fromMappedFile(std::move(file));
    RunCache reread(path);
    const auto materialized = reread.snapshot();
    ASSERT_FALSE(materialized->mapped());
    ASSERT_EQ(materialized->rows(), all.size());

    const std::vector<std::string> sig_patterns = {
        "", "*", "?", "sigA", "sigZ", "sig?", "sigA*", "sig\xc3*",
        "*2", "A*", "\xff*"};
    const std::vector<std::string> name_patterns = {
        "", "*", "?", "**", "w1", "w10", "w1\x7f", "w1*", "w1?",
        "w1\x7f*", "w?", "w?x", "w?*", "w\xc3*", "*x", "*\x7f", "p",
        "p1", "p1*", "p1?", "p?", "P*", "p*0", "nope", "0", "A*",
        "zzz", "\xff*"};
    std::size_t triples = 0, hits = 0;
    for (const std::string &sp : sig_patterns) {
        for (const std::string &wp : name_patterns) {
            for (const std::string &pp : name_patterns) {
                std::string want;
                std::size_t want_n = 0;
                for (const auto &[key, csv] : all) {
                    if (globMatch(sp, key[0]) && globMatch(wp, key[1]) &&
                        globMatch(pp, key[2])) {
                        want += csv + "\n";
                        ++want_n;
                    }
                }
                for (const auto &snap : {mapped, materialized}) {
                    std::string got;
                    const std::size_t n = snap->matchCsv(sp, wp, pp, got);
                    ASSERT_EQ(n, want_n)
                        << (snap->mapped() ? "mapped" : "materialized")
                        << " match '" << sp << "' '" << wp << "' '"
                        << pp << "'";
                    ASSERT_EQ(got, want)
                        << (snap->mapped() ? "mapped" : "materialized")
                        << " match '" << sp << "' '" << wp << "' '"
                        << pp << "'";
                }
                ++triples;
                hits += want_n;
            }
        }
    }
    EXPECT_EQ(triples, sig_patterns.size() * name_patterns.size() *
                           name_patterns.size());
    EXPECT_GT(hits, all.size()) << "the patterns must match rows";
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
