/**
 * @file
 * Tests for the composable policy layer: the string-keyed policy
 * registry (paper presets + parameterized dynamic variants), the
 * PolicyEngine's verdicts and dynamic state, the workload registry
 * (order lists derived from the factory), and the end-to-end
 * properties the sweep stack depends on - registry round-trip into
 * the run cache, and set-dueling determinism across worker counts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cache/tags.hh"
#include "core/runner.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "core/system.hh"
#include "policy/cache_policy.hh"
#include "policy/policy_engine.hh"
#include "policy/policy_registry.hh"
#include "support/env.hh"
#include "workloads/workload.hh"

using namespace migc;
using migc::test::tempPath;

namespace
{

const std::vector<std::string> kDynamicNames = {
    "CacheRW-DynAB", "CacheRW-Duel", "CacheRW-DynCR"};

} // namespace

// ---------------------------------------------------------------------
// Policy registry
// ---------------------------------------------------------------------

TEST(PolicyRegistry, BuiltinsCoverPaperAndDynamicPolicies)
{
    auto names = PolicyRegistry::instance().names();
    ASSERT_EQ(names.size(), 9u);
    EXPECT_EQ(names[0], "Uncached");
    EXPECT_EQ(names[5], "CacheRW-PCby");
    for (const auto &dyn : kDynamicNames)
        EXPECT_TRUE(PolicyRegistry::instance().known(dyn)) << dyn;
}

TEST(PolicyRegistry, PaperPresetsMatchMake)
{
    for (const auto &p : CachePolicy::allPolicies()) {
        CachePolicy q = CachePolicy::fromName(p.name);
        EXPECT_EQ(q.name, p.name);
        EXPECT_EQ(q.cacheLoadsL1, p.cacheLoadsL1);
        EXPECT_EQ(q.cacheLoadsL2, p.cacheLoadsL2);
        EXPECT_EQ(q.cacheStoresL2, p.cacheStoresL2);
        EXPECT_EQ(q.allocationBypass, p.allocationBypass);
        EXPECT_EQ(q.cacheRinsing, p.cacheRinsing);
        EXPECT_EQ(q.pcBypassL2, p.pcBypassL2);
        EXPECT_EQ(q.dynamic, DynPolicy::none);
    }
}

TEST(PolicyRegistry, ParameterizedSpecsRoundTripTheirName)
{
    CachePolicy ab = CachePolicy::fromName("CacheRW-DynAB@0.5");
    EXPECT_EQ(ab.name, "CacheRW-DynAB@0.5");
    EXPECT_EQ(ab.dynamic, DynPolicy::adaptiveBypass);
    EXPECT_DOUBLE_EQ(ab.dynBypassOccupancy, 0.5);
    EXPECT_TRUE(ab.allocationBypass);

    CachePolicy duel = CachePolicy::fromName("CacheRW-Duel@16");
    EXPECT_EQ(duel.name, "CacheRW-Duel@16");
    EXPECT_EQ(duel.dynamic, DynPolicy::setDueling);
    EXPECT_EQ(duel.duelLeaderPeriod, 16u);
    EXPECT_TRUE(duel.cacheStoresL2); // the capability stays on

    CachePolicy cr = CachePolicy::fromName("CacheRW-DynCR@4");
    EXPECT_EQ(cr.name, "CacheRW-DynCR@4");
    EXPECT_EQ(cr.dynamic, DynPolicy::dynamicRinse);
    EXPECT_EQ(cr.dynRinseMinLines, 4u);
    EXPECT_TRUE(cr.cacheRinsing);
}

TEST(PolicyRegistry, TryMakeRejectsUnknownNames)
{
    CachePolicy p;
    EXPECT_FALSE(PolicyRegistry::instance().tryMake("NoSuchPolicy", p));
    EXPECT_FALSE(PolicyRegistry::instance().known("NoSuchPolicy@3"));
    EXPECT_TRUE(PolicyRegistry::instance().tryMake("CacheRW", p));
    EXPECT_EQ(p.name, "CacheRW");
    // A trailing '@' would alias the defaults under a second cache
    // namespace, and presets accept no parameter at all; known()
    // must agree with tryMake() on both.
    EXPECT_FALSE(
        PolicyRegistry::instance().tryMake("CacheRW-DynAB@", p));
    EXPECT_FALSE(PolicyRegistry::instance().known("CacheRW-DynAB@"));
    EXPECT_FALSE(PolicyRegistry::instance().tryMake("Uncached@5", p));
    EXPECT_FALSE(PolicyRegistry::instance().known("Uncached@5"));
}

TEST(PolicyRegistry, MalformedParametersDie)
{
    // Negative values must not wrap through strtoul into huge
    // unsigned parameters, and non-divisor duel periods must not
    // skew the leader constituencies.
    EXPECT_DEATH((void)CachePolicy::fromName("CacheRW-DynCR@-1"),
                 "integer");
    EXPECT_DEATH((void)CachePolicy::fromName("CacheRW-Duel@-2"),
                 "integer");
    EXPECT_DEATH((void)CachePolicy::fromName("CacheRW-Duel@12"),
                 "power");
    EXPECT_DEATH((void)CachePolicy::fromName("CacheRW-DynAB@1.5"),
                 "fraction");
}

TEST(PolicyRegistry, DescribeListsEveryEntry)
{
    std::string listing = PolicyRegistry::instance().describe();
    for (const auto &name : PolicyRegistry::instance().names())
        EXPECT_NE(listing.find(name), std::string::npos) << name;
}

// ---------------------------------------------------------------------
// PolicyEngine verdicts
// ---------------------------------------------------------------------

TEST(PolicyEngine, LevelFlagsMirrorTheStaticPolicy)
{
    for (const auto &p : CachePolicy::allPolicies()) {
        PolicyEngine engine(p);
        auto l1 = engine.levelFlags(CacheLevel::l1);
        EXPECT_EQ(l1.cacheLoads, p.cacheLoadsL1) << p.name;
        EXPECT_FALSE(l1.cacheStores) << p.name; // L1 never coalesces
        EXPECT_FALSE(l1.rinsing) << p.name;
        EXPECT_FALSE(l1.usePredictor) << p.name;
        auto l2 = engine.levelFlags(CacheLevel::l2);
        EXPECT_EQ(l2.cacheLoads, p.cacheLoadsL2) << p.name;
        EXPECT_EQ(l2.cacheStores, p.cacheStoresL2) << p.name;
        EXPECT_EQ(l2.rinsing, p.cacheRinsing) << p.name;
        EXPECT_EQ(l2.usePredictor, p.pcBypassL2) << p.name;
    }
}

TEST(PolicyEngine, StaticPoliciesAlwaysRinseAndNeverPreBypass)
{
    PolicyEngine engine(CachePolicy::fromName("CacheRW-CR"));
    EXPECT_FALSE(engine.occupancyBypassActive());
    EXPECT_FALSE(engine.duelingActive(CacheLevel::l2));
    for (std::size_t pop = 1; pop < 16; ++pop)
        EXPECT_TRUE(engine.rinseRow(pop));
}

TEST(PolicyEngine, OccupancyThresholdConvertsAtTheLimit)
{
    PolicyEngine engine(CachePolicy::fromName("CacheRW-DynAB@0.75"));
    ASSERT_TRUE(engine.occupancyBypassActive());
    // 16-way set: 0.75 * 16 = 12 busy ways trigger the pre-bypass.
    EXPECT_FALSE(engine.occupancyBypass(11, 16));
    EXPECT_TRUE(engine.occupancyBypass(12, 16));
    EXPECT_TRUE(engine.occupancyBypass(16, 16));
    EXPECT_EQ(engine.occupancyBypasses(), 2.0);
}

TEST(PolicyEngine, DuelRolesTileEveryPeriod)
{
    PolicyEngine engine(CachePolicy::fromName("CacheRW-Duel@8"));
    const unsigned sets = 64;
    unsigned leaders_r = 0, leaders_rw = 0;
    for (unsigned s = 0; s < sets; ++s) {
        switch (engine.duelRole(s, sets)) {
          case DuelRole::leaderR:
            ++leaders_r;
            EXPECT_EQ(s % 8, 0u);
            break;
          case DuelRole::leaderRW:
            ++leaders_rw;
            EXPECT_EQ(s % 8, 4u);
            break;
          case DuelRole::follower:
            break;
        }
    }
    EXPECT_EQ(leaders_r, sets / 8);
    EXPECT_EQ(leaders_rw, sets / 8);
}

TEST(PolicyEngine, LeadersObeyTheirConstituency)
{
    PolicyEngine engine(CachePolicy::fromName("CacheRW-Duel"));
    EXPECT_FALSE(engine.cacheStore(DuelRole::leaderR));
    EXPECT_TRUE(engine.cacheStore(DuelRole::leaderRW));
}

TEST(PolicyEngine, FollowersFlipWithPsel)
{
    PolicyEngine engine(CachePolicy::fromName("CacheRW-Duel"));
    // At the midpoint the follower default is CacheRW (coalesce).
    EXPECT_TRUE(engine.cacheStore(DuelRole::follower));
    // Writebacks pouring out of the CacheRW leaders make coalescing
    // look expensive: followers flip to bypassing.
    engine.noteDuelWriteback();
    EXPECT_FALSE(engine.cacheStore(DuelRole::follower));
    // Bypass-store cost in the CacheR leaders flips them back.
    engine.noteDuelBypassStore();
    EXPECT_TRUE(engine.cacheStore(DuelRole::follower));
    engine.noteDuelBypassStore();
    EXPECT_TRUE(engine.cacheStore(DuelRole::follower));
}

TEST(PolicyEngine, DynamicRinseHonorsFloorAndRunningMean)
{
    PolicyEngine engine(CachePolicy::fromName("CacheRW-DynCR@3"));
    // Below the floor: never rinse, regardless of the mean.
    EXPECT_FALSE(engine.rinseRow(1));
    EXPECT_FALSE(engine.rinseRow(2));
    // Dense rows (>= running mean, >= floor) rinse.
    EXPECT_TRUE(engine.rinseRow(8));
    EXPECT_TRUE(engine.rinseRow(8));
    // After dense rows raised the mean, a just-at-floor row defers.
    EXPECT_FALSE(engine.rinseRow(3));
    EXPECT_GT(engine.rinseDeferred(), 0.0);
}

TEST(PolicyEngine, ResetRestoresDynamicState)
{
    CachePolicy duel = CachePolicy::fromName("CacheRW-Duel");
    PolicyEngine engine(duel);
    const std::uint32_t initial = engine.psel();
    engine.noteDuelWriteback();
    engine.noteDuelWriteback();
    EXPECT_NE(engine.psel(), initial);
    engine.reset(duel);
    EXPECT_EQ(engine.psel(), initial);
    EXPECT_TRUE(engine.cacheStore(DuelRole::follower));
}

// ---------------------------------------------------------------------
// Workload registry
// ---------------------------------------------------------------------

TEST(WorkloadRegistryExtensions, OrderListsDeriveFromTheRegistry)
{
    auto paper = workloadOrder();
    ASSERT_EQ(paper.size(), 17u);
    auto extended = extendedWorkloadOrder();
    ASSERT_EQ(extended.size(), 18u);
    // The extended list is the paper list plus the extensions.
    for (std::size_t i = 0; i < paper.size(); ++i)
        EXPECT_EQ(extended[i], paper[i]);
    EXPECT_EQ(extended.back(), "Attn");
    // Every listed name round-trips through the factory.
    for (const auto &name : extended)
        EXPECT_EQ(makeWorkload(name)->name(), name);
}

TEST(WorkloadRegistryExtensions, AttentionHasThreePhases)
{
    auto wl = makeWorkload("Attn");
    EXPECT_EQ(wl->category(), Category::reuseSensitive);
    auto kernels = wl->kernels(0.25);
    ASSERT_EQ(kernels.size(), 3u);
    EXPECT_EQ(kernels[0].name, "attnQKt");
    EXPECT_EQ(kernels[1].name, "attnSoftmax");
    EXPECT_EQ(kernels[2].name, "attnV");
    // Intermediate tensors stay on-device; only the output publishes.
    EXPECT_EQ(kernels[0].endScope, SyncScope::device);
    EXPECT_EQ(kernels[1].endScope, SyncScope::device);
    EXPECT_EQ(kernels[2].endScope, SyncScope::system);
    EXPECT_GT(wl->footprintBytes(0.25), 0u);
}

// ---------------------------------------------------------------------
// End-to-end properties through the sweep stack
// ---------------------------------------------------------------------

TEST(DynamicPolicySweep, RegistryRoundTripHitsTheRunCache)
{
    const std::string path = tempPath("dynamic_roundtrip.csv");
    std::remove(path.c_str());
    SimConfig cfg = SimConfig::testConfig();

    std::vector<RunRequest> grid;
    for (const auto &p : kDynamicNames)
        grid.push_back(RunRequest{cfg, "FwSoft", p});
    grid.push_back(RunRequest{cfg, "Attn", "CacheRW-Duel@8"});

    std::vector<RunMetrics> cold;
    {
        SweepEngine engine(path);
        cold = engine.run(grid, 2);
        EXPECT_EQ(engine.simulationsPerformed(), grid.size());
    }
    // A fresh engine on the same file must serve every point - the
    // dynamic policies' names key the cache exactly like presets.
    SweepEngine engine(path);
    std::vector<RunMetrics> warm = engine.run(grid, 2);
    EXPECT_EQ(engine.simulationsPerformed(), 0u);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        EXPECT_EQ(warm[i].execTicks, cold[i].execTicks) << i;
        EXPECT_EQ(warm[i].policy, cold[i].policy) << i;
    }
    std::remove(path.c_str());
}

TEST(DynamicPolicySweep, SetDuelingIsBitIdenticalAcrossWorkerCounts)
{
    // The duel's PSEL lives per System, so sharding the grid across
    // any worker count must not change a single counter. Compare a
    // serial sweep with a 4-worker sweep (no disk cache).
    SimConfig cfg = SimConfig::testConfig();
    std::vector<RunRequest> grid;
    for (const char *w : {"FwSoft", "BwSoft", "FwBN", "Attn"}) {
        for (const auto &p : kDynamicNames)
            grid.push_back(RunRequest{cfg, w, p});
    }

    SweepEngine serial("");
    std::vector<RunMetrics> a = serial.run(grid, 1);
    SweepEngine parallel("");
    std::vector<RunMetrics> b = parallel.run(grid, 4);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].execTicks, b[i].execTicks) << grid[i].workload;
        EXPECT_EQ(a[i].dramReads, b[i].dramReads) << grid[i].workload;
        EXPECT_EQ(a[i].dramWrites, b[i].dramWrites) << grid[i].workload;
        EXPECT_EQ(a[i].l2Writebacks, b[i].l2Writebacks)
            << grid[i].workload;
        EXPECT_EQ(a[i].allocBypassed, b[i].allocBypassed)
            << grid[i].workload;
    }
}

TEST(DynamicPolicySweep, RepeatedDynamicRunsAreTickIdentical)
{
    SimConfig cfg = SimConfig::testConfig();
    for (const auto &p : kDynamicNames) {
        RunMetrics a = runNamedWorkload("FwPool", cfg, p);
        RunMetrics b = runNamedWorkload("FwPool", cfg, p);
        EXPECT_EQ(a.execTicks, b.execTicks) << p;
        EXPECT_EQ(a.cacheStallCycles, b.cacheStallCycles) << p;
        EXPECT_EQ(a.l2Writebacks, b.l2Writebacks) << p;
    }
}

TEST(DynamicPolicySweep, DuelCostSamplesLandOnlyInLeaderSets)
{
    // The per-set sample counters in Tags record where duel cost
    // events were charged; by construction only leader sets are ever
    // charged, and a store-heavy run must charge some.
    SimConfig cfg = SimConfig::testConfig();
    const std::string policy_name = "CacheRW-Duel@8";
    SimConfig run_cfg = cfg;
    run_cfg.seed = runSeedFor(cfg, "FwPool", policy_name);
    System sys(run_cfg, CachePolicy::fromName(policy_name));
    runWorkloadOn(sys, *makeWorkload("FwPool"));

    std::uint64_t leader_samples = 0;
    std::uint64_t follower_samples = 0;
    for (unsigned b = 0; b < sys.numL2Banks(); ++b) {
        const Tags &tags = sys.l2Bank(b).tags();
        for (unsigned s = 0; s < tags.numSets(); ++s) {
            if (sys.policyEngine().duelRole(s, tags.numSets()) ==
                DuelRole::follower) {
                follower_samples += tags.duelSamples(s);
            } else {
                leader_samples += tags.duelSamples(s);
            }
        }
    }
    EXPECT_GT(leader_samples, 0u);
    EXPECT_EQ(follower_samples, 0u);
    // L1s never duel: no samples anywhere.
    const Tags &l1_tags = sys.l1(0).tags();
    for (unsigned s = 0; s < l1_tags.numSets(); ++s)
        EXPECT_EQ(l1_tags.duelSamples(s), 0u);
}

TEST(DynamicPolicySweep, DynamicPoliciesDivergeFromTheirStaticBase)
{
    // Sanity: the mechanisms actually fire. Under FwPool (stores and
    // heavy set pressure at test scale) each dynamic policy must
    // produce a different trajectory than its static base.
    SimConfig cfg = SimConfig::testConfig();
    RunMetrics ab = runNamedWorkload("FwPool", cfg, "CacheRW-AB");
    RunMetrics dyn_ab =
        runNamedWorkload("FwPool", cfg, "CacheRW-DynAB@0.25");
    EXPECT_NE(ab.execTicks, dyn_ab.execTicks);
    EXPECT_GT(dyn_ab.allocBypassed, ab.allocBypassed);

    // Leader sets bypassing stores remove writebacks (the per-line
    // DRAM write count can coincide when each line is stored once).
    RunMetrics rw = runNamedWorkload("FwPool", cfg, "CacheRW");
    RunMetrics duel = runNamedWorkload("FwPool", cfg, "CacheRW-Duel@8");
    EXPECT_NE(rw.l2Writebacks, duel.l2Writebacks);
    EXPECT_NE(rw.execTicks, duel.execTicks);

    RunMetrics cr = runNamedWorkload("FwPool", cfg, "CacheRW-CR");
    RunMetrics dyn_cr =
        runNamedWorkload("FwPool", cfg, "CacheRW-DynCR@8");
    EXPECT_NE(cr.rinseWritebacks, dyn_cr.rinseWritebacks);
}
