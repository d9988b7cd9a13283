/** @file Tests for the experiment harness and the sweep engine: the
 *  multi-config on-disk cache, cache bypass, cross-config isolation,
 *  warm-cache replay, static-policy selection logic, and the fatal
 *  check on removed environment variables. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "core/experiments.hh"
#include "core/metrics.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "support/env.hh"
#include "workloads/workload.hh"

using namespace migc;
using migc::test::ScopedEnv;
using migc::test::tempPath;

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

/** Multi-config header tags (see core/sweep_engine.cc). */
constexpr const char *kCacheTagV3 = "# migc-sweep-v3";
constexpr const char *kSectionTag = "# config ";

/** Seed a v3 cache file with one section for @p cfg. */
void
writeCacheFile(const std::string &path, const SimConfig &cfg,
               const std::vector<RunMetrics> &rows)
{
    std::ofstream out(path, std::ios::trunc);
    out << kCacheTagV3 << "\n";
    out << kSectionTag << cfg.signature() << "\n";
    out << RunMetrics::csvHeader() << "\n";
    for (const auto &m : rows)
        out << m.toCsv() << "\n";
}

} // namespace

TEST(ExperimentSweep, CacheRoundTripBySignature)
{
    const std::string path = tempPath("roundtrip.csv");
    const std::string text = tempPath("roundtrip_text.csv");
    std::remove(path.c_str());
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
    EXPECT_EQ(line, kCacheTagV3);
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, kSectionTag + cfg.signature());
    std::remove(text.c_str());

    // A new sweep on the same config must load the saved result
    // rather than resimulate: doctor the cached row and confirm the
    // doctored value (which no simulation would produce) comes back.
    RunMetrics doctored = first;
    doctored.execTicks = 424242;
    writeCacheFile(path, cfg, {doctored});
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
    std::remove(path.c_str());
}

TEST(ExperimentSweep, NoCacheEnvBypassesDisk)
{
    const std::string path = tempPath("bypass.csv");
    std::remove(path.c_str());
    ScopedEnv cache("MIGC_SWEEP_CACHE", path.c_str());

    // Plant a doctored cache: with MIGC_NO_CACHE=1 the sweep must
    // neither read it nor overwrite it.
    SimConfig cfg = SimConfig::testConfig();
    writeCacheFile(path, cfg,
                   {fakeMetrics("FwSoft", "CacheRW", 424242)});
    {
        ScopedEnv no_cache("MIGC_NO_CACHE", "1");
        ExperimentSweep sweep(cfg);
        EXPECT_NE(sweep.get("FwSoft", "CacheRW").execTicks,
                  Tick(424242));
    }
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    std::vector<std::string> lines;
    do {
        lines.push_back(line);
    } while (std::getline(in, line));
    // tag + section + header + planted row, untouched
    EXPECT_EQ(lines.size(), 4u);
    std::remove(path.c_str());
}

TEST(SweepEngine, CrossConfigSectionsDoNotClobberEachOther)
{
    const std::string path = tempPath("crossconfig.csv");
    std::remove(path.c_str());

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
    std::remove(path.c_str());
}

TEST(SweepEngine, OverlappingWritersUnionInsteadOfClobbering)
{
    const std::string path = tempPath("unionwriters.csv");
    std::remove(path.c_str());

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
    std::remove(path.c_str());
}

TEST(SweepEngine, WarmCacheReplayPerformsZeroSimulations)
{
    const std::string path = tempPath("warmreplay.csv");
    std::remove(path.c_str());

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
    std::remove(path.c_str());
}

TEST(SweepEngine, CorruptedCacheRowsAreCountedAsParseErrors)
{
    const std::string path = tempPath("parse_errors.csv");
    std::remove(path.c_str());

    // A cache file with one good row and two corrupted lines (a
    // truncated write, a stale schema, a stray editor). The good row
    // must still be served, and the losses must be counted - a
    // truncated cache should not be able to pass for a cold one.
    SimConfig cfg = SimConfig::testConfig();
    {
        std::ofstream out(path, std::ios::trunc);
        out << kCacheTagV3 << "\n";
        out << kSectionTag << cfg.signature() << "\n";
        out << RunMetrics::csvHeader() << "\n";
        out << fakeMetrics("FwSoft", "CacheRW", 424242).toCsv() << "\n";
        out << "this line is not a metrics row\n";
        out << "FwBN,CacheR,not-a-number\n";
    }

    SweepEngine engine(path);
    EXPECT_EQ(engine.cacheParseErrors(), 2u);
    EXPECT_EQ(engine.get(cfg, "FwSoft", "CacheRW").execTicks,
              Tick(424242));
    EXPECT_EQ(engine.simulationsPerformed(), 0u);
    std::remove(path.c_str());
}

TEST(RunCache, ParseErrorsCountEachDamagedLineOnce)
{
    const std::string corrupt = tempPath("corrupt_input.csv");
    const std::string path = tempPath("parse_dedupe.csv");
    std::remove(corrupt.c_str());
    std::remove(path.c_str());
    {
        std::ofstream out(corrupt, std::ios::trunc);
        out << kCacheTagV3 << "\n";
        out << kSectionTag << "some-config\n";
        out << "broken row\n";
    }

    // A zero-length or blank file is an empty cache, not a damaged
    // one: it merges no row and counts no parse error.
    for (const char *text : {"", "\n\n"}) {
        const std::string blank = tempPath("blank_input.csv");
        {
            std::ofstream out(blank, std::ios::trunc);
            out << text;
        }
        RunCache empty{std::string()};
        EXPECT_EQ(empty.mergeFile(blank).rows, 0u);
        EXPECT_EQ(empty.parseErrors(), 0u);
        std::remove(blank.c_str());
    }

    RunCache cache(path);
    // Re-merging the same damaged file must not inflate the count.
    cache.mergeFile(corrupt);
    cache.mergeFile(corrupt);
    EXPECT_EQ(cache.parseErrors(), 1u);

    // A row corrupted (by a concurrent writer) after this cache
    // loaded is seen - and counted - by the pre-write merge of
    // save(), the last moment it is visible before the rewrite
    // drops it.
    {
        std::ofstream out(path, std::ios::trunc);
        out << kCacheTagV3 << "\n";
        out << kSectionTag << "other-config\n";
        out << "another broken row\n";
    }
    cache.insert("fresh-config", fakeMetrics("FwSoft", "CacheR", 7));
    cache.saveNow();
    EXPECT_EQ(cache.parseErrors(), 2u);
    std::remove(corrupt.c_str());
    std::remove(path.c_str());
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
    const std::string path = tempPath("selection.csv");
    std::remove(path.c_str());
    ScopedEnv cache("MIGC_SWEEP_CACHE", path.c_str());
    ScopedEnv no_cache("MIGC_NO_CACHE", nullptr);

    // Preload all three static policies so selection never
    // simulates: CacheR fastest, Uncached slowest.
    SimConfig cfg = SimConfig::testConfig();
    writeCacheFile(path, cfg,
                   {fakeMetrics("FwSoft", "Uncached", 3000),
                    fakeMetrics("FwSoft", "CacheR", 1000),
                    fakeMetrics("FwSoft", "CacheRW", 2000)});
    ExperimentSweep sweep(cfg);
    EXPECT_EQ(sweep.staticBest("FwSoft"), "CacheR");
    EXPECT_EQ(sweep.staticWorst("FwSoft"), "Uncached");
    std::remove(path.c_str());
}

TEST(ExperimentSweep, PolicyNameSetsMatchThePaper)
{
    auto stat = ExperimentSweep::staticPolicyNames();
    auto all = ExperimentSweep::allPolicyNames();
    EXPECT_EQ(stat.size(), 3u);
    EXPECT_EQ(all.size(), 6u);
    // The static policies lead the full list, same order.
    for (std::size_t i = 0; i < stat.size(); ++i)
        EXPECT_EQ(all[i], stat[i]);
}

TEST(ExperimentSweep, PrefetchFillsTheGridWithoutResimulation)
{
    const std::string path = tempPath("prefetch.csv");
    std::remove(path.c_str());
    ScopedEnv cache("MIGC_SWEEP_CACHE", path.c_str());
    ScopedEnv no_cache("MIGC_NO_CACHE", nullptr);
    ScopedEnv jobs("MIGC_JOBS", "4");

    SimConfig cfg = SimConfig::testConfig();
    ExperimentSweep sweep(cfg);
    sweep.prefetch({"Uncached"});

    // Every workload row must now be in the cache file. Count them
    // through RunCache so the check holds for v4 binary (the
    // default) and csv alike.
    RunCache rows(path, 8);
    EXPECT_EQ(rows.size(), workloadOrder().size());

    // A second sweep over the same grid replays from disk.
    ExperimentSweep warm(cfg);
    warm.prefetch({"Uncached"});
    EXPECT_EQ(warm.engine().simulationsPerformed(), 0u);
    std::remove(path.c_str());
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
