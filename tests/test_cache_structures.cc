/** @file Tests for tags, replacement, MSHRs, and the DBI. */

#include <gtest/gtest.h>

#include <set>

#include "cache/dbi.hh"
#include "cache/mshr.hh"
#include "cache/tags.hh"

using namespace migc;

TEST(Tags, GeometryChecks)
{
    Tags t(16 * 1024, 16, 64, ReplKind::lru);
    EXPECT_EQ(t.numSets(), 16u);
    EXPECT_EQ(t.assoc(), 16u);
    EXPECT_EQ(t.lineAlign(0x12345), 0x12340u);
}

TEST(Tags, InsertAndFind)
{
    Tags t(4 * 1024, 4, 64, ReplKind::lru);
    EXPECT_EQ(t.findBlock(0x1000), nullptr);
    CacheBlk *victim = t.findVictim(0x1000);
    ASSERT_NE(victim, nullptr);
    t.insert(victim, 0x1000, BlkState::valid, 0x99);
    CacheBlk *found = t.findBlock(0x1000);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->addr, 0x1000u);
    EXPECT_EQ(found->insertPc, 0x99u);
    EXPECT_FALSE(found->reused);
}

TEST(Tags, VictimPrefersInvalid)
{
    Tags t(1024, 4, 64, ReplKind::lru); // 4 sets x 4 ways
    // Fill 3 ways of set 0.
    for (int i = 0; i < 3; ++i) {
        CacheBlk *v = t.findVictim(0x0);
        t.insert(v, 0x1000u * i, BlkState::valid, 0);
    }
    CacheBlk *v = t.findVictim(0x0);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->state, BlkState::invalid);
}

TEST(Tags, LruEvictsColdest)
{
    Tags t(1024, 4, 64, ReplKind::lru);
    std::vector<CacheBlk *> blks;
    for (int i = 0; i < 4; ++i) {
        CacheBlk *v = t.findVictim(0x0);
        t.insert(v, 0x1000u * i + 0x0, BlkState::valid, 0);
        blks.push_back(v);
    }
    // Touch all but the second.
    t.touch(blks[0]);
    t.touch(blks[2]);
    t.touch(blks[3]);
    CacheBlk *victim = t.findVictim(0x0);
    EXPECT_EQ(victim, blks[1]);
}

TEST(Tags, AllBusyMeansNoVictim)
{
    Tags t(1024, 4, 64, ReplKind::lru);
    for (int i = 0; i < 4; ++i) {
        CacheBlk *v = t.findVictim(0x0);
        t.insert(v, 0x1000u * i, BlkState::busy, 0);
    }
    EXPECT_EQ(t.findVictim(0x0), nullptr);
    // Another set is unaffected.
    EXPECT_NE(t.findVictim(0x40), nullptr);
}

TEST(Tags, InvalidateCleanSparesDirtyAndBusy)
{
    Tags t(1024, 4, 64, ReplKind::lru);
    CacheBlk *a = t.findVictim(0x0);
    t.insert(a, 0x0, BlkState::valid, 0);
    CacheBlk *b = t.findVictim(0x40);
    t.insert(b, 0x40, BlkState::dirty, 0);
    CacheBlk *c = t.findVictim(0x80);
    t.insert(c, 0x80, BlkState::busy, 0);

    EXPECT_EQ(t.invalidateClean(), 1u);
    EXPECT_EQ(t.findBlock(0x0), nullptr);
    EXPECT_NE(t.findBlock(0x40), nullptr);
    EXPECT_NE(t.findBlock(0x80), nullptr);
    EXPECT_EQ(t.countState(BlkState::dirty), 1u);
}

TEST(Tags, InterleaveBitsSpreadBankStripedLines)
{
    // A bank of an 8-banked cache sees every 8th line; with the
    // interleave bits stripped, those lines cover all sets.
    Tags t(8 * 1024, 4, 64, ReplKind::lru, 1, /*interleave_bits=*/3);
    std::set<unsigned> sets;
    for (unsigned i = 0; i < 1024; ++i)
        sets.insert(t.setIndex(i * 8 * 64ULL)); // bank-0 lines
    EXPECT_EQ(sets.size(), t.numSets());
}

TEST(Tags, ForEachDirtyVisitsExactlyDirty)
{
    Tags t(1024, 4, 64, ReplKind::lru);
    for (int i = 0; i < 8; ++i) {
        CacheBlk *v = t.findVictim(0x40u * i);
        t.insert(v, 0x40u * i,
                 i % 2 ? BlkState::dirty : BlkState::valid, 0);
    }
    int dirty = 0;
    t.forEachDirty([&](CacheBlk &blk) {
        ++dirty;
        EXPECT_TRUE(blk.isDirty());
    });
    EXPECT_EQ(dirty, 4);
}

class ReplPolicySweep : public ::testing::TestWithParam<ReplKind>
{};

TEST_P(ReplPolicySweep, VictimIsAlwaysAmongCandidates)
{
    auto policy = ReplPolicy::create(GetParam(), 7);
    std::vector<CacheBlk> storage(8);
    std::vector<CacheBlk *> cands;
    for (auto &blk : storage) {
        blk.state = BlkState::valid;
        cands.push_back(&blk);
    }
    for (int i = 0; i < 100; ++i) {
        std::size_t v = policy->victim(cands);
        EXPECT_LT(v, cands.size());
    }
}

TEST_P(ReplPolicySweep, DeterministicAcrossInstances)
{
    auto p1 = ReplPolicy::create(GetParam(), 11);
    auto p2 = ReplPolicy::create(GetParam(), 11);
    std::vector<CacheBlk> storage(4);
    std::vector<CacheBlk *> cands;
    std::uint64_t stamp = 0;
    for (auto &blk : storage) {
        blk.state = BlkState::valid;
        blk.lastTouch = ++stamp;
        blk.insertStamp = stamp;
        cands.push_back(&blk);
    }
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(p1->victim(cands), p2->victim(cands));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplPolicySweep,
                         ::testing::Values(ReplKind::lru,
                                           ReplKind::fifo,
                                           ReplKind::random));

TEST(Mshr, AllocateFindDeallocate)
{
    MshrFile file(4, 4);
    EXPECT_FALSE(file.full());
    Mshr &m = file.allocate(0x1000, nullptr, 42);
    EXPECT_EQ(m.lineAddr, 0x1000u);
    EXPECT_EQ(file.find(0x1000), &m);
    EXPECT_EQ(file.find(0x2000), nullptr);
    file.deallocate(0x1000);
    EXPECT_EQ(file.find(0x1000), nullptr);
}

TEST(Mshr, FullAtCapacity)
{
    MshrFile file(2, 4);
    file.allocate(0x0, nullptr, 1);
    file.allocate(0x40, nullptr, 2);
    EXPECT_TRUE(file.full());
    file.deallocate(0x0);
    EXPECT_FALSE(file.full());
}

TEST(Mshr, TargetCoalescingLimit)
{
    MshrFile file(2, 2);
    Packet a(MemCmd::ReadReq, 0x0, 64, 0);
    Packet b(MemCmd::ReadReq, 0x0, 64, 0);
    Mshr &m = file.allocate(0x0, nullptr, 1);
    EXPECT_TRUE(file.canCoalesce(m));
    m.addTarget(&a);
    EXPECT_TRUE(file.canCoalesce(m));
    m.addTarget(&b);
    EXPECT_FALSE(file.canCoalesce(m));
}

TEST(Mshr, RecycledEntryStartsEmptyAndTargetsLeaveInOrder)
{
    MshrFile file(1, 4);
    Packet p0(MemCmd::ReadReq, 0x40, 64, 0);
    Packet p1(MemCmd::WriteReq, 0x40, 64, 0);
    Packet p2(MemCmd::ReadReq, 0x40, 64, 0);
    Mshr &m = file.allocate(0x40, nullptr, 7);
    m.addTarget(&p0);
    m.addTarget(&p1);
    m.addTarget(&p2);
    m.hasStoreTarget = true;
    EXPECT_EQ(m.numTargets, 3u);
    EXPECT_EQ(m.targets.pop_front(), &p0);
    EXPECT_EQ(m.targets.pop_front(), &p1);
    EXPECT_EQ(m.targets.pop_front(), &p2);
    EXPECT_TRUE(m.targets.empty());
    EXPECT_EQ(p1.nextTarget, nullptr);
    file.deallocate(0x40);
    EXPECT_EQ(file.find(0x40), nullptr);

    // The one slot is reused for the next line with no state carried
    // over from its last miss.
    Mshr &n = file.allocate(0x80, nullptr, 8);
    EXPECT_EQ(n.lineAddr, 0x80u);
    EXPECT_EQ(n.fillPktId, 8u);
    EXPECT_FALSE(n.hasStoreTarget);
    EXPECT_EQ(n.numTargets, 0u);
    EXPECT_TRUE(n.targets.empty());
    EXPECT_EQ(file.find(0x80), &n);
}

TEST(Dbi, AddRemoveTakeRow)
{
    DirtyBlockIndex dbi(8);
    EXPECT_TRUE(dbi.add(1, 0x40).empty());
    EXPECT_TRUE(dbi.add(1, 0x80).empty());
    EXPECT_TRUE(dbi.add(2, 0xc0).empty());
    EXPECT_EQ(dbi.rowsTracked(), 2u);
    EXPECT_EQ(dbi.rowPopulation(1), 2u);

    auto rinse = dbi.takeRow(1, 0x40);
    ASSERT_EQ(rinse.size(), 1u);
    EXPECT_EQ(rinse[0], 0x80u);
    EXPECT_EQ(dbi.rowsTracked(), 1u);

    dbi.remove(2, 0xc0);
    EXPECT_EQ(dbi.rowsTracked(), 0u);
}

TEST(Dbi, DuplicateAddIsIdempotent)
{
    DirtyBlockIndex dbi(4);
    dbi.add(1, 0x40);
    dbi.add(1, 0x40);
    EXPECT_EQ(dbi.rowPopulation(1), 1u);
}

TEST(Dbi, CapacityEvictionSpillsLruRow)
{
    DirtyBlockIndex dbi(2);
    dbi.add(1, 0x40);
    dbi.add(2, 0x80);
    dbi.add(1, 0x100); // touches row 1: row 2 is now LRU
    auto spilled = dbi.add(3, 0x140);
    ASSERT_EQ(spilled.size(), 1u);
    EXPECT_EQ(spilled[0], 0x80u);
    EXPECT_EQ(dbi.rowsTracked(), 2u);
    EXPECT_EQ(dbi.rowPopulation(1), 2u);
    EXPECT_EQ(dbi.rowPopulation(3), 1u);
}

TEST(Dbi, RemoveUnknownIsNoop)
{
    DirtyBlockIndex dbi(2);
    dbi.remove(9, 0x40); // no such row
    dbi.add(1, 0x40);
    dbi.remove(1, 0x9999); // no such line
    EXPECT_EQ(dbi.rowPopulation(1), 1u);
}

TEST(Dbi, TakeRowOnUnknownRowIsEmpty)
{
    DirtyBlockIndex dbi(2);
    EXPECT_TRUE(dbi.takeRow(7, 0x40).empty());
}
