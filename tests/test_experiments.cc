/** @file Tests for the experiment harness and the sweep engine: the
 *  grid registry and config presets, the points each figure fetches,
 *  the multi-config on-disk cache, cache bypass, cross-config
 *  isolation, warm-cache replay, static-policy selection logic, and
 *  the fatal check on removed environment variables. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiments.hh"
#include "core/metrics.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "sim/logging.hh"
#include "support/cache_file.hh"
#include "support/env.hh"
#include "workloads/workload.hh"

using namespace migc;
using migc::test::readFile;
using migc::test::ScopedEnv;
using migc::test::TempFile;

namespace
{

bool
fileExists(const std::string &path)
{
    return static_cast<bool>(std::ifstream(path));
}

/** A fake metrics row so selection tests need no simulation. */
RunMetrics
fakeMetrics(const std::string &workload, const std::string &policy,
            Tick exec_ticks)
{
    RunMetrics m;
    m.workload = workload;
    m.policy = policy;
    m.execTicks = exec_ticks;
    m.dramAccesses = 1.0;
    return m;
}

/** Replace @p path with a cache holding @p rows under @p sig. */
void
writeCacheFile(const std::string &path, const std::string &sig,
               const std::vector<RunMetrics> &rows)
{
    std::remove(path.c_str());
    RunCache cache(path);
    for (const auto &m : rows)
        cache.insert(sig, m);
    ASSERT_TRUE(cache.saveNow());
}

/** Append the first half of a one-row cache file to @p path: the
 *  torn tail a crash mid-append leaves. */
void
appendTornSegment(const std::string &path)
{
    const TempFile donor("torn_donor");
    writeCacheFile(donor.path(), "torn-config",
                   {fakeMetrics("FwBN", "CacheR", 99)});
    const std::string segment = readFile(donor.path());
    ASSERT_FALSE(segment.empty());
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << segment.substr(0, segment.size() / 2);
}

} // namespace

TEST(ExperimentSweep, CacheRoundTripBySignature)
{
    const TempFile file("roundtrip.csv"), text_file("roundtrip_text.csv");
    const std::string &path = file.path();
    const std::string &text = text_file.path();
    ScopedEnv cache("MIGC_SWEEP_CACHE", path.c_str());
    ScopedEnv no_cache("MIGC_NO_CACHE", nullptr);

    SimConfig cfg = SimConfig::testConfig();
    RunMetrics first;
    {
        ExperimentSweep sweep(cfg);
        first = sweep.get("FwSoft", "CacheRW");
        ASSERT_TRUE(fileExists(path));
    }

    // The file is v4 binary; its csv export leads with the v3 format
    // tag, then this config's section.
    {
        std::ifstream bin(path, std::ios::binary);
        std::string magic(8, '\0');
        ASSERT_TRUE(bin.read(magic.data(), 8));
        EXPECT_EQ(magic, "MIGC4SEG");
    }
    ASSERT_TRUE(RunCache(path).exportFile(text, CacheFormat::csv));
    std::ifstream in(text);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "# migc-sweep-v3");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "# config " + cfg.signature());

    // A new sweep on the same config must load the saved result
    // rather than resimulate: doctor the cached row and confirm the
    // doctored value (which no simulation would produce) comes back.
    RunMetrics doctored = first;
    doctored.execTicks = 424242;
    writeCacheFile(path, cfg.signature(), {doctored});
    {
        ExperimentSweep sweep(cfg);
        EXPECT_EQ(sweep.get("FwSoft", "CacheRW").execTicks,
                  Tick(424242));
    }

    // A different signature (changed seed) must not see the doctored
    // section; it simulates its own result.
    SimConfig other = cfg;
    other.seed = cfg.seed + 1;
    {
        ExperimentSweep sweep(other);
        EXPECT_NE(sweep.get("FwSoft", "CacheRW").execTicks,
                  Tick(424242));
    }
}

TEST(ExperimentSweep, NoCacheEnvBypassesDisk)
{
    const TempFile file("bypass.csv");
    const std::string &path = file.path();
    ScopedEnv cache("MIGC_SWEEP_CACHE", path.c_str());

    // Plant a doctored cache: with MIGC_NO_CACHE=1 the sweep must
    // neither read it nor overwrite it.
    SimConfig cfg = SimConfig::testConfig();
    writeCacheFile(path, cfg.signature(),
                   {fakeMetrics("FwSoft", "CacheRW", 424242)});
    const std::string planted = readFile(path);
    ASSERT_FALSE(planted.empty());
    {
        ScopedEnv no_cache("MIGC_NO_CACHE", "1");
        ExperimentSweep sweep(cfg);
        EXPECT_NE(sweep.get("FwSoft", "CacheRW").execTicks,
                  Tick(424242));
    }
    EXPECT_EQ(readFile(path), planted);
}

TEST(SweepEngine, CrossConfigSectionsDoNotClobberEachOther)
{
    const TempFile file("crossconfig.csv");
    const std::string &path = file.path();

    SimConfig cfg_a = SimConfig::testConfig();
    SimConfig cfg_b = SimConfig::testConfig();
    cfg_b.seed = cfg_a.seed + 7;
    ASSERT_NE(cfg_a.signature(), cfg_b.signature());

    // Two engines with different configs fill one cache path in
    // turn; each write must preserve the other's section.
    Tick ticks_a = 0;
    Tick ticks_b = 0;
    {
        SweepEngine engine(path);
        ticks_a = engine.get(cfg_a, "FwSoft", "Uncached").execTicks;
        EXPECT_EQ(engine.simulationsPerformed(), 1u);
    }
    {
        SweepEngine engine(path);
        ticks_b = engine.get(cfg_b, "FwSoft", "Uncached").execTicks;
        EXPECT_EQ(engine.simulationsPerformed(), 1u);
    }

    // A third engine resumes both results without simulating.
    {
        SweepEngine engine(path);
        EXPECT_EQ(engine.get(cfg_a, "FwSoft", "Uncached").execTicks,
                  ticks_a);
        EXPECT_EQ(engine.get(cfg_b, "FwSoft", "Uncached").execTicks,
                  ticks_b);
        EXPECT_EQ(engine.simulationsPerformed(), 0u);
        EXPECT_EQ(engine.cacheHits(), 2u);
    }
}

TEST(SweepEngine, OverlappingWritersUnionInsteadOfClobbering)
{
    const TempFile file("unionwriters.csv");
    const std::string &path = file.path();

    SimConfig cfg_a = SimConfig::testConfig();
    SimConfig cfg_b = SimConfig::testConfig();
    cfg_b.seed = cfg_a.seed + 3;

    // Both engines open the (empty) cache before either has written:
    // the classic lost-update shape. Each save must union the file's
    // latest contents, so the second writer preserves the first
    // writer's section instead of overwriting it with its own
    // load-time snapshot.
    Tick ticks_a = 0;
    Tick ticks_b = 0;
    {
        SweepEngine engine_a(path);
        SweepEngine engine_b(path);
        ticks_a = engine_a.get(cfg_a, "FwSoft", "Uncached").execTicks;
        ticks_b = engine_b.get(cfg_b, "FwSoft", "Uncached").execTicks;
    }

    SweepEngine reader(path);
    EXPECT_EQ(reader.get(cfg_a, "FwSoft", "Uncached").execTicks,
              ticks_a);
    EXPECT_EQ(reader.get(cfg_b, "FwSoft", "Uncached").execTicks,
              ticks_b);
    EXPECT_EQ(reader.simulationsPerformed(), 0u);
}

TEST(SweepEngine, WarmCacheReplayPerformsZeroSimulations)
{
    const TempFile file("warmreplay.csv");
    const std::string &path = file.path();

    // An ablation-style multi-config grid: same (workload, policy)
    // at three DBI sizes plus a second workload.
    std::vector<RunRequest> grid;
    for (std::size_t rows : {4u, 16u, 64u}) {
        SimConfig cfg = SimConfig::testConfig();
        cfg.l2Bank.dbiRows = rows;
        grid.push_back(RunRequest{cfg, "FwBN", "CacheRW-CR"});
    }
    grid.push_back(
        RunRequest{SimConfig::testConfig(), "FwSoft", "CacheRW"});

    std::vector<RunMetrics> cold;
    {
        SweepEngine engine(path);
        cold = engine.run(grid);
        EXPECT_EQ(engine.simulationsPerformed(), grid.size());
    }

    // Re-running the whole ablation from the on-disk cache must not
    // simulate anything and must reproduce every row.
    {
        SweepEngine engine(path);
        std::vector<RunMetrics> warm = engine.run(grid);
        EXPECT_EQ(engine.simulationsPerformed(), 0u);
        ASSERT_EQ(warm.size(), cold.size());
        for (std::size_t i = 0; i < cold.size(); ++i) {
            EXPECT_EQ(warm[i].execTicks, cold[i].execTicks);
            EXPECT_EQ(warm[i].dramAccesses, cold[i].dramAccesses);
            EXPECT_EQ(warm[i].simEvents, cold[i].simEvents);
        }
    }
}

TEST(SweepEngine, CorruptedCacheRowsAreCountedAsParseErrors)
{
    const TempFile file("parse_errors.csv");
    const std::string &path = file.path();

    // A cache file with one good segment and a torn tail (a crash
    // mid-append). The good row must still be served, and the loss
    // must be counted - a truncated cache should not be able to pass
    // for a cold one.
    SimConfig cfg = SimConfig::testConfig();
    writeCacheFile(path, cfg.signature(),
                   {fakeMetrics("FwSoft", "CacheRW", 424242)});
    appendTornSegment(path);

    SweepEngine engine(path);
    EXPECT_EQ(engine.cacheParseErrors(), 1u);
    EXPECT_EQ(engine.get(cfg, "FwSoft", "CacheRW").execTicks,
              Tick(424242));
    EXPECT_EQ(engine.simulationsPerformed(), 0u);
}

TEST(RunCache, ParseErrorsCountEachDamagedTailOnce)
{
    const TempFile corrupt_file("corrupt_input.csv");
    const TempFile cache_file("parse_dedupe.csv");
    const std::string &corrupt = corrupt_file.path();
    const std::string &path = cache_file.path();
    writeCacheFile(corrupt, "some-config",
                   {fakeMetrics("FwSoft", "CacheRW", 1)});
    appendTornSegment(corrupt);

    // A zero-length file is an empty cache and a blank one is not
    // v4: neither merges a row nor counts a parse error, and only the
    // blank one warns - once, however often it is merged.
    for (const char *text : {"", "\n\n"}) {
        const TempFile blank("blank_input.csv");
        {
            std::ofstream out(blank.path(), std::ios::trunc);
            out << text;
        }
        RunCache empty{std::string()};
        const std::uint64_t warned = logging_detail::warnCount();
        EXPECT_EQ(empty.mergeFile(blank.path()).rows, 0u);
        empty.mergeFile(blank.path());
        EXPECT_EQ(empty.parseErrors(), 0u);
        EXPECT_EQ(logging_detail::warnCount() - warned,
                  text[0] == '\0' ? 0u : 1u);
    }

    RunCache cache(path);
    // Re-merging the same damaged file must not inflate the count,
    // nor warn about the same damage again.
    const std::uint64_t warned = logging_detail::warnCount();
    EXPECT_EQ(cache.mergeFile(corrupt).rows, 1u);
    cache.mergeFile(corrupt);
    EXPECT_EQ(cache.parseErrors(), 1u);
    EXPECT_EQ(logging_detail::warnCount(), warned + 1);

    // A tail torn (by a concurrent writer) after this cache loaded
    // is seen - and counted - by the pre-write merge of save(), the
    // last moment it is visible before the rewrite drops it.
    writeCacheFile(path, "other-config",
                   {fakeMetrics("FwSoft", "CacheR", 2)});
    appendTornSegment(path);
    cache.insert("fresh-config", fakeMetrics("FwSoft", "CacheR", 7));
    ASSERT_TRUE(cache.saveNow());
    EXPECT_EQ(cache.parseErrors(), 2u);
}

TEST(SweepEngine, DuplicateRequestsSimulateOnce)
{
    SweepEngine engine(""); // in-memory only
    SimConfig cfg = SimConfig::testConfig();
    std::vector<RunRequest> grid(3, RunRequest{cfg, "FwSoft", "CacheR"});
    std::vector<RunMetrics> results = engine.run(grid);
    EXPECT_EQ(engine.simulationsPerformed(), 1u);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].execTicks, results[1].execTicks);
    EXPECT_EQ(results[0].execTicks, results[2].execTicks);
}

TEST(ExperimentSweep, StaticBestAndWorstSelection)
{
    const TempFile file("selection.csv");
    const std::string &path = file.path();
    ScopedEnv cache("MIGC_SWEEP_CACHE", path.c_str());
    ScopedEnv no_cache("MIGC_NO_CACHE", nullptr);

    // Preload all three static policies so selection never
    // simulates: CacheR fastest, Uncached slowest.
    SimConfig cfg = SimConfig::testConfig();
    writeCacheFile(path, cfg.signature(),
                   {fakeMetrics("FwSoft", "Uncached", 3000),
                    fakeMetrics("FwSoft", "CacheR", 1000),
                    fakeMetrics("FwSoft", "CacheRW", 2000)});
    ExperimentSweep sweep(cfg);
    EXPECT_EQ(sweep.staticBest("FwSoft"), "CacheR");
    EXPECT_EQ(sweep.staticWorst("FwSoft"), "Uncached");
}

TEST(ExperimentGrid, RegistryPinsEachGridAndPreset)
{
    // The fingerprints hash every run key in order, so they pin each
    // grid's workloads, policies and workload-major order at once.
    const std::vector<RunRequest> paper =
        experimentGrid("paper", SimConfig::defaultConfig()).requests();
    EXPECT_EQ(paper.size(), 102u);
    EXPECT_EQ(gridFingerprint(paper), 0xc1a2090f18452b98ull);
    const std::vector<RunRequest> dynamic =
        experimentGrid("dynamic", SimConfig::defaultConfig()).requests();
    EXPECT_EQ(dynamic.size(), 162u);
    EXPECT_EQ(gridFingerprint(dynamic), 0x0273d62875a9575eull);
    EXPECT_EQ(gridFingerprint(
                  experimentGrid("dynamic", SimConfig::testConfig())
                      .requests()),
              0x3b46519d9499b05dull);

    for (const SimConfig &want :
         {SimConfig::defaultConfig(), SimConfig::paperConfig(),
          SimConfig::testConfig()})
        EXPECT_EQ(SimConfig::preset(want.name).signature(),
                  want.signature());
}

TEST(ExperimentGrid, UnknownNamesDieListingTheValidOnes)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(experimentGrid("bogus", SimConfig::testConfig()),
                ::testing::ExitedWithCode(1),
                "unknown grid 'bogus' [(]valid: paper, dynamic[)]");
    EXPECT_EXIT(SimConfig::preset("bogus"), ::testing::ExitedWithCode(1),
                "unknown config preset 'bogus' "
                "[(]valid: default, paper, test[)]");
}

TEST(ExperimentSweep, FiguresFetchExactlyTheirPoints)
{
    // Each builder prefetches the points it reads, as one batch: on a
    // fresh memory-only sweep Figure 4 simulates the 17 CacheR
    // points, Figure 6 the 51 static-policy points and Figure 10 the
    // 102-point paper grid, none of them one by one through get()
    // (which informs "simulating ..."), and a second call replays.
    ScopedEnv no_cache("MIGC_NO_CACHE", "1");
    ScopedEnv jobs("MIGC_JOBS", "4");
    const struct
    {
        FigureData (*build)(ExperimentSweep &);
        std::uint64_t points;
    } figures[] = {{figure4, 17}, {figure6, 51}, {figure10, 102}};
    for (const auto &f : figures) {
        SCOPED_TRACE(f.points);
        ExperimentSweep sweep(SimConfig::testConfig());
        ::testing::internal::CaptureStdout();
        const FigureData first = f.build(sweep);
        const std::string log = ::testing::internal::GetCapturedStdout();
        EXPECT_EQ(sweep.engine().simulationsPerformed(), f.points);
        EXPECT_EQ(log.find("info: simulating"), std::string::npos);

        const FigureData again = f.build(sweep);
        EXPECT_EQ(sweep.engine().simulationsPerformed(), f.points);
        EXPECT_EQ(again.values, first.values);
    }
}

TEST(ExperimentSweep, PrefetchFillsTheGridWithoutResimulation)
{
    const TempFile file("prefetch.csv");
    const std::string &path = file.path();
    ScopedEnv cache("MIGC_SWEEP_CACHE", path.c_str());
    ScopedEnv no_cache("MIGC_NO_CACHE", nullptr);
    ScopedEnv jobs("MIGC_JOBS", "4");

    SimConfig cfg = SimConfig::testConfig();
    ExperimentSweep sweep(cfg);
    sweep.prefetch({"Uncached"});

    // Every workload row must now be in the cache file.
    RunCache rows(path, 8);
    EXPECT_EQ(rows.size(), workloadOrder().size());

    // A second sweep over the same grid replays from disk.
    ExperimentSweep warm(cfg);
    warm.prefetch({"Uncached"});
    EXPECT_EQ(warm.engine().simulationsPerformed(), 0u);
}

TEST(RemovedEnv, FatalInTheDefaultEngine)
{
    // Static sharding and the csv write format are gone. A script
    // that still exports their variables must die before anything
    // simulates instead of running the full grid once per "shard" or
    // getting binary caches where it asked for text; the default-
    // constructed engine every figure binary uses is where that
    // check has to fire.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ScopedEnv no_cache("MIGC_NO_CACHE", "1");
    ScopedEnv format("MIGC_CACHE_FORMAT", nullptr);
    const SimConfig cfg = SimConfig::testConfig();
    const std::vector<RunRequest> grid{
        RunRequest{cfg, "FwSoft", "Uncached"},
        RunRequest{cfg, "FwBN", "CacheRW"}};
    {
        ScopedEnv shards("MIGC_SHARDS", "2");
        ScopedEnv index("MIGC_SHARD_INDEX", nullptr);
        EXPECT_EXIT(
            {
                SweepEngine engine;
                engine.run(grid);
            },
            ::testing::ExitedWithCode(1),
            "MIGC_SHARDS is no longer supported.*"
            "migc_sweep --grid paper[|]dynamic --shards N");
    }
    {
        ScopedEnv shards("MIGC_SHARDS", nullptr);
        ScopedEnv index("MIGC_SHARD_INDEX", "1");
        EXPECT_EXIT(
            {
                SweepEngine engine;
                engine.run(grid);
            },
            ::testing::ExitedWithCode(1),
            "MIGC_SHARD_INDEX is no longer supported");
    }
    {
        // Any value is fatal, even the one that used to be the
        // default.
        ScopedEnv shards("MIGC_SHARDS", nullptr);
        ScopedEnv index("MIGC_SHARD_INDEX", nullptr);
        ScopedEnv v4("MIGC_CACHE_FORMAT", "v4");
        EXPECT_EXIT(
            {
                SweepEngine engine;
                engine.run(grid);
            },
            ::testing::ExitedWithCode(1),
            "MIGC_CACHE_FORMAT is no longer supported.*"
            "migc_sweep --export PATH --cache-format csv");
    }
}
