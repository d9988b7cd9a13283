/** @file Tests for the file side of multi-process sweeps: the run-key
 *  hash, the fatal check on removed environment variables, a fleet
 *  worker's stored shard holding exactly its leased keys, and the
 *  coordinator merge (deduplicating, loud on conflicts). */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/fleet.hh"
#include "core/shard.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"

using namespace migc;

namespace
{

/** Scoped env var set/restore so tests cannot leak state. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        hadOld_ = old != nullptr;
        if (hadOld_)
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (hadOld_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool hadOld_ = false;
};

std::string
tempCachePath(const std::string &leaf)
{
    return ::testing::TempDir() + "migc_shard_" + leaf + ".csv";
}

bool
fileExists(const std::string &path)
{
    return static_cast<bool>(std::ifstream(path));
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

/** The small grid the engine tests run: 2 workloads x 3 policies on
 *  the tiny test system. */
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

/** A v3 shard-cache file with one section and the given rows. */
void
writeShardFile(const std::string &path, const std::string &sig,
               const std::vector<RunMetrics> &rows)
{
    std::ofstream out(path, std::ios::trunc);
    out << "# migc-sweep-v3\n";
    out << "# config " << sig << "\n";
    out << RunMetrics::csvHeader() << "\n";
    for (const auto &m : rows)
        out << m.toCsv() << "\n";
}

RunMetrics
fakeMetrics(const std::string &workload, const std::string &policy,
            Tick exec_ticks)
{
    RunMetrics m;
    m.workload = workload;
    m.policy = policy;
    m.execTicks = exec_ticks;
    return m;
}

} // namespace

TEST(ShardPartition, HashDependsOnlyOnKeyText)
{
    const std::uint64_t h = runKeyHash("sig", "FwSoft", "CacheRW");
    EXPECT_EQ(h, runKeyHash("sig", "FwSoft", "CacheRW"));
    // Moving a character across a component boundary must change the
    // hash: the key components are separated, not concatenated.
    EXPECT_NE(h, runKeyHash("sigF", "wSoft", "CacheRW"));
    EXPECT_NE(h, runKeyHash("sig", "FwSoft", "CacheR"));
    EXPECT_NE(h, runKeyHash("", "FwSoft", "CacheRW"));
}

TEST(ShardedSweep, EnvHookDrivesTheDefaultEngine)
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
    const auto grid = smallGrid();
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

TEST(ShardedSweep, ShardFilesHoldOnlyFreshRows)
{
    // The coordinator sees nothing but pushed bytes, so a fleet
    // worker's stored shard must hold exactly the keys it was leased
    // - simulated or promoted from the canonical warm import - and
    // nothing else of the canonical cache; otherwise every push
    // grows into a full copy of it.
    const std::string base = tempCachePath("freshonly");
    const std::string sock = ::testing::TempDir() + "migc_shard.sock";
    removeCacheFamily(base, 1);

    const auto grid = smallGrid();
    const SimConfig cfg = SimConfig::testConfig();
    {
        SweepEngine solo(base);
        solo.run(grid); // canonical cache now holds the small grid
        // Canonical rows outside the leased grid: one more point of
        // the same config, and a section of another config.
        SimConfig other = cfg;
        other.seed = cfg.seed + 1;
        solo.run({RunRequest{cfg, "FwSoft", "CacheRW-CR"},
                  RunRequest{other, "FwSoft", "Uncached"}});
    }

    auto extended = grid;
    extended.push_back(RunRequest{cfg, "FwSoft", "CacheRW-AB"});
    // Lease every key, cached or not, so the worker also answers
    // canonical rows from its warm store.
    std::vector<std::uint32_t> all(extended.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = static_cast<std::uint32_t>(i);
    const std::uint64_t hash = gridFingerprint(extended);
    FleetServer server(
        sock,
        FleetQueue(std::vector<double>(extended.size(), 1.0), all,
                   FleetConfig{2, 10000}),
        hash, base);
    server.start();
    {
        SweepEngine engine(base, FleetWorkerSpec{0});
        FleetClient client(sock, 0, hash);
        SweepEngine::FleetRunStats st =
            engine.runFleet(extended, client, 1);
        // Everything but the new point replays from the canonical
        // warm store.
        EXPECT_EQ(st.runs, 1u);
        EXPECT_EQ(st.hits, grid.size());
        EXPECT_EQ(engine.simulationsPerformed(), 1u);
    }
    EXPECT_TRUE(server.drained());
    server.stop();

    // The stored copy holds the leased keys and only those.
    RunCache stored{std::string()};
    ASSERT_TRUE(fileExists(shardCachePath(base, 0)));
    stored.mergeFile(shardCachePath(base, 0));
    EXPECT_EQ(stored.size(), extended.size());
    for (const RunRequest &req : extended) {
        EXPECT_NE(stored.find(cfg.signature(), req.workload,
                              req.policy),
                  nullptr)
            << req.workload << "/" << req.policy;
    }
    // A clean drain leaves no private checkpoint behind.
    EXPECT_FALSE(fileExists(workerCheckpointPath(base, 0)));
    removeCacheFamily(base, 1);
}

TEST(ShardMerge, MissingShardFilesAreSkipped)
{
    const std::string base = tempCachePath("nofiles");
    removeCacheFamily(base, 3);
    ShardMergeStats stats = mergeShardCaches(base, 3);
    EXPECT_EQ(stats.files, 0u);
    EXPECT_EQ(stats.rows, 0u);
    std::remove(base.c_str());
}

TEST(ShardMerge, IdenticalRowsDedupeAcrossShards)
{
    const std::string base = tempCachePath("dedupe");
    removeCacheFamily(base, 2);
    RunMetrics row = fakeMetrics("FwSoft", "CacheRW", 1234);
    writeShardFile(shardCachePath(base, 0), "sectionA", {row});
    writeShardFile(shardCachePath(base, 1), "sectionA", {row});
    ShardMergeStats stats = mergeShardCaches(base, 2);
    EXPECT_EQ(stats.files, 2u);
    EXPECT_EQ(stats.rows, 1u);
    EXPECT_EQ(stats.duplicates, 1u);
    std::remove(base.c_str());
}

TEST(ShardMerge, ZeroLengthShardFileIsAnEmptyCacheNotAParseError)
{
    // A fleet worker SIGKILLed before its first checkpoint leaves a
    // zero-length (or blank) shard file behind; --resume and the
    // join merge must read it as a legitimately empty cache, not
    // count a parse error or warn about a missing format tag.
    const std::string base = tempCachePath("zerolen");
    removeCacheFamily(base, 2);
    RunMetrics row = fakeMetrics("FwSoft", "CacheRW", 4321);
    writeShardFile(shardCachePath(base, 0), "sectionA", {row});
    { std::ofstream touch(shardCachePath(base, 1), std::ios::trunc); }

    ShardMergeStats stats = mergeShardCaches(base, 2);
    EXPECT_EQ(stats.files, 2u);
    EXPECT_EQ(stats.rows, 1u);
    EXPECT_EQ(stats.duplicates, 0u);
    EXPECT_EQ(stats.parseErrors, 0u);
    // Both inputs were consumed, including the empty one.
    EXPECT_FALSE(fileExists(shardCachePath(base, 0)));
    EXPECT_FALSE(fileExists(shardCachePath(base, 1)));
    std::remove(base.c_str());

    // Blank lines only (a checkpoint truncated after the newline of
    // an earlier write) read the same way.
    removeCacheFamily(base, 1);
    {
        std::ofstream blank(shardCachePath(base, 0), std::ios::trunc);
        blank << "\n\n";
    }
    ShardMergeStats blank_stats = mergeShardCaches(base, 1);
    EXPECT_EQ(blank_stats.files, 1u);
    EXPECT_EQ(blank_stats.rows, 0u);
    EXPECT_EQ(blank_stats.parseErrors, 0u);
    std::remove(base.c_str());
}

TEST(ShardMerge, ConflictingRowsFailLoudly)
{
    const std::string base = tempCachePath("conflict");
    removeCacheFamily(base, 2);
    // Two shards claim the same (config, workload, policy) with
    // different results: a nondeterministic simulator or mismatched
    // sweeps. The merge must die and leave the inputs on disk.
    writeShardFile(shardCachePath(base, 0), "sectionA",
                   {fakeMetrics("FwSoft", "CacheRW", 1111)});
    writeShardFile(shardCachePath(base, 1), "sectionA",
                   {fakeMetrics("FwSoft", "CacheRW", 2222)});

    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(mergeShardCaches(base, 2),
                ::testing::ExitedWithCode(1), "conflict");
    EXPECT_TRUE(fileExists(shardCachePath(base, 0)));
    EXPECT_TRUE(fileExists(shardCachePath(base, 1)));
    removeCacheFamily(base, 2);
}
