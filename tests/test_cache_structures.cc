/**
 * @file
 * Tests for tags, replacement, MSHRs, and the DBI. The tag store is
 * also driven through randomized traces in lockstep with a naive
 * array-of-structs reference model, asserting identical block,
 * victim, busy and count results op for op, with
 * Tags::shadowCoherent() checked throughout.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/dbi.hh"
#include "cache/mshr.hh"
#include "cache/tags.hh"
#include "sim/rng.hh"

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

namespace
{

// ---------------------------------------------------------------------
// Tags vs. a naive AoS reference model
// ---------------------------------------------------------------------

/**
 * The tag-store semantics, kept deliberately naive: per-block structs
 * only, linear walks, candidate gather in way order. Uses its own
 * ReplPolicy instance seeded identically to the Tags under test, so
 * the random policy's draw streams stay in lockstep as long as both
 * sides make the same victim() calls.
 */
class RefTags
{
  public:
    RefTags(std::uint64_t size_bytes, unsigned assoc, unsigned line_size,
            ReplKind repl, std::uint64_t seed)
        : assoc_(assoc), lineMask_(line_size - 1),
          numSets_(static_cast<unsigned>(size_bytes / assoc / line_size)),
          setShift_(0), repl_(ReplPolicy::create(repl, seed))
    {
        for (unsigned s = 1; s < line_size; s <<= 1)
            ++setShift_;
        blocks_.resize(static_cast<std::size_t>(numSets_) * assoc_);
    }

    Addr lineAlign(Addr a) const { return a & ~lineMask_; }

    unsigned setIndex(Addr a) const
    {
        return static_cast<unsigned>((a >> setShift_) & (numSets_ - 1));
    }

    /** Way holding @p a, or assoc_ when absent. */
    unsigned
    findWay(Addr a) const
    {
        const Addr line = lineAlign(a);
        const std::size_t base =
            static_cast<std::size_t>(setIndex(a)) * assoc_;
        for (unsigned w = 0; w < assoc_; ++w) {
            const CacheBlk &b = blocks_[base + w];
            if (b.addr == line && b.state != BlkState::invalid)
                return w;
        }
        return assoc_;
    }

    unsigned
    busyWays(Addr a) const
    {
        const std::size_t base =
            static_cast<std::size_t>(setIndex(a)) * assoc_;
        unsigned busy = 0;
        for (unsigned w = 0; w < assoc_; ++w)
            busy += blocks_[base + w].isBusy();
        return busy;
    }

    /** Victim way for @p a, or assoc_ when every way is busy. */
    unsigned
    victimWay(Addr a)
    {
        const std::size_t base =
            static_cast<std::size_t>(setIndex(a)) * assoc_;
        std::vector<CacheBlk *> cands;
        for (unsigned w = 0; w < assoc_; ++w) {
            CacheBlk &b = blocks_[base + w];
            if (b.state == BlkState::invalid)
                return w;
            if (!b.isBusy())
                cands.push_back(&b);
        }
        if (cands.empty())
            return assoc_;
        CacheBlk *victim = cands[repl_->victim(cands)];
        return static_cast<unsigned>(victim - &blocks_[base]);
    }

    CacheBlk &
    at(Addr a, unsigned way)
    {
        return blocks_[static_cast<std::size_t>(setIndex(a)) * assoc_ +
                       way];
    }

    void
    touch(CacheBlk &b)
    {
        b.lastTouch = ++stamp_;
    }

    void
    insert(CacheBlk &b, Addr a, BlkState state)
    {
        b.addr = lineAlign(a);
        b.state = state;
        b.reused = false;
        b.insertStamp = ++stamp_;
        b.lastTouch = stamp_;
    }

    std::uint64_t
    invalidateClean()
    {
        std::uint64_t n = 0;
        for (auto &b : blocks_) {
            if (b.state == BlkState::valid) {
                b.invalidate();
                ++n;
            }
        }
        return n;
    }

    std::uint64_t
    countState(BlkState state) const
    {
        std::uint64_t n = 0;
        for (const auto &b : blocks_)
            n += b.state == state;
        return n;
    }

    /** Dirty block addresses in index order; @p clean makes each of
     *  those blocks valid afterwards. */
    std::vector<Addr>
    dirtyAddrs(bool clean)
    {
        std::vector<Addr> out;
        for (auto &b : blocks_) {
            if (b.isDirty()) {
                out.push_back(b.addr);
                if (clean)
                    b.state = BlkState::valid;
            }
        }
        return out;
    }

    void
    reset(std::uint64_t seed)
    {
        for (auto &b : blocks_)
            b = CacheBlk{};
        stamp_ = 0;
        repl_->reset(seed);
    }

  private:
    unsigned assoc_;
    Addr lineMask_;
    unsigned numSets_;
    unsigned setShift_;
    std::unique_ptr<ReplPolicy> repl_;
    std::vector<CacheBlk> blocks_;
    std::uint64_t stamp_ = 0;
};

/** Way index of a Tags-owned block (via the forEach enumeration). */
class WayIndex
{
  public:
    explicit WayIndex(Tags &tags)
    {
        std::size_t i = 0;
        tags.forEach([&](CacheBlk &b) { index_[&b] = i++; });
    }

    unsigned
    way(const Tags &tags, const CacheBlk *blk) const
    {
        return static_cast<unsigned>(index_.at(blk) % tags.assoc());
    }

  private:
    std::unordered_map<const CacheBlk *, std::size_t> index_;
};

void
driveTrace(ReplKind kind, unsigned assoc, std::uint64_t trace_seed)
{
    SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                 " assoc=" + std::to_string(assoc) +
                 " seed=" + std::to_string(trace_seed));
    const std::uint64_t size = 16 * 1024;
    const unsigned line = 64;
    const std::uint64_t repl_seed = 77;
    Tags tags(size, assoc, line, kind, repl_seed);
    RefTags ref(size, assoc, line, kind, repl_seed);
    WayIndex ways(tags);

    // 4x the cache footprint: plenty of conflict misses.
    const std::uint64_t addr_space = 4 * size;
    Rng rng(trace_seed);
    auto randAddr = [&] { return rng.below(addr_space); };

    const int ops = 60000;
    for (int op = 0; op < ops; ++op) {
        const std::uint64_t what = rng.below(100);
        if (what < 40) {
            // Lookup (+ touch on hit).
            const Addr a = randAddr();
            CacheBlk *blk = tags.findBlock(a);
            const unsigned rw = ref.findWay(a);
            ASSERT_EQ(blk != nullptr, rw < assoc) << "op " << op;
            if (blk) {
                ASSERT_EQ(ways.way(tags, blk), rw) << "op " << op;
                ASSERT_EQ(blk->state, ref.at(a, rw).state);
                tags.touch(blk);
                ref.touch(ref.at(a, rw));
            }
        } else if (what < 65) {
            // Allocate: victim select, evict if needed, insert.
            // Mostly a miss fill. A resident address is skipped three
            // times in four; the fourth installs a second copy, so
            // lookups must agree on the lowest of two matching ways.
            const Addr a = randAddr();
            if (tags.findBlock(a) != nullptr && rng.below(4) != 0)
                continue;
            CacheBlk *victim = tags.findVictim(a);
            const unsigned rw = ref.victimWay(a);
            ASSERT_EQ(victim != nullptr, rw < assoc) << "op " << op;
            if (!victim)
                continue;
            ASSERT_EQ(ways.way(tags, victim), rw) << "op " << op;
            if (victim->isValid())
                tags.invalidateBlock(victim);
            CacheBlk &rv = ref.at(a, rw);
            if (rv.isValid())
                rv.invalidate();
            const BlkState st =
                std::array{BlkState::valid, BlkState::dirty,
                           BlkState::busy}[rng.below(3)];
            tags.insert(victim, a, st, 0);
            ref.insert(rv, a, st);
        } else if (what < 75) {
            // State transition on a resident block.
            const Addr a = randAddr();
            CacheBlk *blk = tags.findBlock(a);
            const unsigned rw = ref.findWay(a);
            ASSERT_EQ(blk != nullptr, rw < assoc);
            if (blk) {
                const BlkState st = rng.below(2) ? BlkState::valid
                                                 : BlkState::dirty;
                tags.setState(blk, st);
                ref.at(a, rw).state = st;
            }
        } else if (what < 82) {
            // Invalidate a resident block.
            const Addr a = randAddr();
            CacheBlk *blk = tags.findBlock(a);
            const unsigned rw = ref.findWay(a);
            ASSERT_EQ(blk != nullptr, rw < assoc);
            if (blk) {
                tags.invalidateBlock(blk);
                ref.at(a, rw).invalidate();
            }
        } else if (what < 90) {
            const Addr a = randAddr();
            ASSERT_EQ(tags.busyWays(a), ref.busyWays(a)) << "op " << op;
        } else if (what < 94) {
            for (BlkState st :
                 {BlkState::invalid, BlkState::valid, BlkState::dirty,
                  BlkState::busy}) {
                ASSERT_EQ(tags.countState(st), ref.countState(st));
            }
        } else if (what < 97) {
            ASSERT_EQ(tags.invalidateClean(), ref.invalidateClean());
        } else if (what < 99) {
            // Half the scans clean each block they visit, as the
            // flush path does: the callback may change the state byte
            // it visits, and every dirty block is still visited once.
            const bool clean = rng.below(2) != 0;
            std::vector<Addr> got;
            tags.forEachDirty([&](CacheBlk &b) {
                got.push_back(b.addr);
                if (clean)
                    tags.setState(&b, BlkState::valid);
            });
            ASSERT_EQ(got, ref.dirtyAddrs(clean)) << "op " << op;
        } else {
            // Full reset mid-trace; both sides restart their stamps
            // and replacement RNG from the same seed.
            const std::uint64_t s = rng.below(1000);
            tags.reset(s);
            ref.reset(s);
        }

        if (op % 1000 == 0) {
            ASSERT_TRUE(tags.shadowCoherent()) << "op " << op;
        }
    }
    EXPECT_TRUE(tags.shadowCoherent());
}

TEST(TagsDifferential, LruMatchesReferenceModel)
{
    // 16 ways is the default L2, 32 the widest ablation L1, and 64
    // the widest set a bitmap word holds (an all-ones way mask).
    driveTrace(ReplKind::lru, 16, 1);
    driveTrace(ReplKind::lru, 8, 2);
    driveTrace(ReplKind::lru, 32, 7);
    driveTrace(ReplKind::lru, 64, 8);
}

TEST(TagsDifferential, FifoMatchesReferenceModel)
{
    driveTrace(ReplKind::fifo, 16, 3);
    driveTrace(ReplKind::fifo, 4, 4);
    driveTrace(ReplKind::fifo, 32, 9);
    driveTrace(ReplKind::fifo, 64, 10);
}

TEST(TagsDifferential, RandomPolicyRngDrawsStayInLockstep)
{
    driveTrace(ReplKind::random, 16, 5);
    driveTrace(ReplKind::random, 8, 6);
    driveTrace(ReplKind::random, 32, 11);
    driveTrace(ReplKind::random, 64, 12);
}

TEST(TagsDifferential, FullSetMinScanFastPathPicksLruVictim)
{
    // Fill one set completely with known touch order and check the
    // stamp-lane fast path picks the least-recently-used way.
    Tags tags(16 * 1024, 16, 64, ReplKind::lru);
    const Addr set_stride = 64 * 16; // 16 sets
    std::vector<CacheBlk *> inserted;
    for (unsigned w = 0; w < 16; ++w) {
        const Addr a = w * set_stride; // all map to set 0
        CacheBlk *v = tags.findVictim(a);
        tags.insert(v, a, BlkState::valid, 0);
        inserted.push_back(v);
    }
    // Touch every way except way 5 (most-recent last).
    for (unsigned w = 0; w < 16; ++w) {
        if (w != 5)
            tags.touch(inserted[w]);
    }
    CacheBlk *victim = tags.findVictim(16 * set_stride);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim, inserted[5]);
    EXPECT_TRUE(tags.shadowCoherent());
}

} // namespace

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
