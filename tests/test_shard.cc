/** @file Tests for core/shard.hh outside the fleet plan: the run-key
 *  hash and the fatal check on removed environment variables. The
 *  plan step and the fleet's one store are tested in
 *  tests/test_fleet.cc and tests/test_fleet_faults.cc. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

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
