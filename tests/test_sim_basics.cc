/**
 * @file
 * Tests for types, clock domains, RNG, stats, logging, and the
 * recycled containers (Ring, SlotTable) the memory system queues and
 * tables are built on.
 */

#include <gtest/gtest.h>

#include <deque>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "mem/addr_utils.hh"
#include "sim/logging.hh"
#include "sim/ring.hh"
#include "sim/rng.hh"
#include "sim/slot_table.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

using namespace migc;

TEST(ClockDomain, CycleTickConversions)
{
    ClockDomain clk(625); // 1.6 GHz
    EXPECT_EQ(clk.cyclesToTicks(Cycles(4)), 2500u);
    EXPECT_EQ(clk.ticksToCycles(2500).value(), 4u);
    EXPECT_DOUBLE_EQ(clk.frequency(), 1.6e9);
}

TEST(ClockDomain, ClockEdgeAlignsUp)
{
    ClockDomain clk(1000);
    EXPECT_EQ(clk.clockEdge(0), 0u);
    EXPECT_EQ(clk.clockEdge(1), 1000u);
    EXPECT_EQ(clk.clockEdge(1000), 1000u);
    EXPECT_EQ(clk.clockEdge(1001, Cycles(2)), 4000u);
}

TEST(Cycles, Arithmetic)
{
    Cycles a(5), b(3);
    EXPECT_EQ((a + b).value(), 8u);
    EXPECT_EQ((a - b).value(), 2u);
    EXPECT_LT(b, a);
    a += Cycles(1);
    EXPECT_EQ(a.value(), 6u);
}

TEST(AddrUtils, PowersAndAlignment)
{
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(alignDown(0x1234, 64), 0x1200u);
    EXPECT_EQ(alignUp(0x1234, 64), 0x1240u);
    EXPECT_EQ(alignUp(0x1240, 64), 0x1240u);
}

TEST(AddrUtils, HashMixesBits)
{
    // Nearby inputs should map far apart (basic avalanche check).
    EXPECT_NE(hashAddr(1), hashAddr(2));
    EXPECT_NE(hashAddr(0x1000), hashAddr(0x1040));
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowStaysInBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(99);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Csprintf, FormatsLikePrintf)
{
    EXPECT_EQ(csprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(csprintf("%#llx", 255ULL), "0xff");
}

TEST(Stats, ScalarAccumulates)
{
    StatScalar s;
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, AverageMean)
{
    StatAverage a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2);
    a.sample(4);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_DOUBLE_EQ(a.count(), 2.0);
}

TEST(Stats, HistogramBucketsAndSaturation)
{
    StatHistogram h(0, 10, 5);
    h.sample(0.5);
    h.sample(9.5);
    h.sample(-3);  // clamps to first bucket
    h.sample(100); // clamps to last bucket
    EXPECT_DOUBLE_EQ(h.count(), 4.0);
    EXPECT_DOUBLE_EQ(h.buckets()[0], 2.0);
    EXPECT_DOUBLE_EQ(h.buckets()[4], 2.0);
    EXPECT_DOUBLE_EQ(h.minSample(), -3.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 100.0);
}

TEST(Stats, GroupPathsAndFormulas)
{
    StatGroup root;
    StatScalar hits, misses;
    hits += 30;
    misses += 10;
    auto &l1 = root.child("l1");
    l1.addScalar("hits", "", &hits);
    l1.addScalar("misses", "", &misses);
    l1.addFormula("hit_rate", "", [&] {
        return hits.value() / (hits.value() + misses.value());
    });
    EXPECT_DOUBLE_EQ(root.get("l1.hits"), 30.0);
    EXPECT_DOUBLE_EQ(root.get("l1.hit_rate"), 0.75);
    EXPECT_TRUE(root.has("l1.misses"));
    EXPECT_FALSE(root.has("l1.nothing"));
}

TEST(Stats, SumOverChildren)
{
    StatGroup root;
    StatScalar a, b;
    a += 5;
    b += 7;
    root.child("c0").addScalar("hits", "", &a);
    root.child("c1").addScalar("hits", "", &b);
    EXPECT_DOUBLE_EQ(root.sumOverChildren("hits"), 12.0);
}

TEST(Stats, FlattenAndDump)
{
    StatGroup root;
    StatScalar v;
    v += 1;
    root.child("x").addScalar("v", "a value", &v);
    std::map<std::string, double> flat;
    root.flatten(flat);
    EXPECT_EQ(flat.size(), 1u);
    EXPECT_DOUBLE_EQ(flat.at("x.v"), 1.0);

    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("x.v 1"), std::string::npos);
}

// ---------------------------------------------------------------------
// Ring: differential against std::deque
// ---------------------------------------------------------------------

namespace
{

struct QEntry
{
    Tick ready;
    std::uint32_t tag;

    bool
    operator==(const QEntry &o) const
    {
        return ready == o.ready && tag == o.tag;
    }
};

void
expectSameQueue(const Ring<QEntry> &ring, const std::deque<QEntry> &ref)
{
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.empty(), ref.empty());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ring[i], ref[i]) << "position " << i;
    if (!ref.empty()) {
        EXPECT_EQ(ring.front(), ref.front());
    }
}

} // namespace

TEST(Ring, MatchesDequeUnderPacketQueueAndFrFcfsTraffic)
{
    // The packet queues' sorted insert from the back, the FR-FCFS
    // erase from inside a window, plain FIFO traffic, growth from
    // empty to hundreds of entries and back, and clears - applied to
    // a Ring and a std::deque in lockstep.
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        Ring<QEntry> ring;
        std::deque<QEntry> ref;
        Tick now = 0;
        std::uint32_t tag = 0;
        // Phases bias toward growth, then toward draining.
        for (int step = 0; step < 20'000; ++step) {
            bool growing = (step / 2'500) % 2 == 0;
            std::uint64_t op = rng.below(100);
            if (op < (growing ? 45u : 25u)) {
                // Sorted insert from the back (RespPacketQueue::push).
                QEntry e{now + rng.below(40), tag++};
                std::size_t pos = ring.size();
                while (pos > 0 && ring[pos - 1].ready > e.ready)
                    --pos;
                auto it = ref.end();
                while (it != ref.begin() && std::prev(it)->ready > e.ready)
                    --it;
                ring.insert(pos, e);
                ref.insert(it, e);
            } else if (op < (growing ? 60u : 45u)) {
                QEntry e{now, tag++};
                ring.push_back(e);
                ref.push_back(e);
            } else if (op < 80) {
                if (!ref.empty()) {
                    ring.pop_front();
                    ref.pop_front();
                }
            } else if (op < 99) {
                // Positional erase: mostly inside a 16-entry window
                // (FR-FCFS), sometimes anywhere.
                if (!ref.empty()) {
                    std::size_t bound = rng.below(4) == 0
                                            ? ref.size()
                                            : std::min<std::size_t>(
                                                  ref.size(), 16);
                    std::size_t pos = rng.below(bound);
                    ring.erase(pos);
                    ref.erase(ref.begin() +
                              static_cast<std::ptrdiff_t>(pos));
                }
            } else {
                ring.clear();
                ref.clear();
            }
            now += rng.below(3);
            expectSameQueue(ring, ref);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(Ring, PositionalInsertAndEraseKeepOrderAcrossWrap)
{
    // Walk the head around a small ring so inserts and erases at
    // every position straddle the wrap point, on both shift sides.
    for (std::size_t len = 1; len <= 8; ++len) {
        for (std::size_t shiftHead = 0; shiftHead < 8; ++shiftHead) {
            for (std::size_t pos = 0; pos <= len; ++pos) {
                Ring<QEntry> ring;
                std::deque<QEntry> ref;
                for (std::size_t k = 0; k < shiftHead; ++k) {
                    ring.push_back({0, 0});
                    ring.pop_front();
                }
                // Distinct from the {0, 0} left in the wrapped slots.
                for (std::uint32_t k = 1; k <= len; ++k) {
                    ring.push_back({k, k});
                    ref.push_back({k, k});
                }
                ring.insert(pos, {99, 99});
                ref.insert(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                           {99, 99});
                expectSameQueue(ring, ref);
                std::size_t at = (pos * 5 + shiftHead) % ref.size();
                ring.erase(at);
                ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(at));
                expectSameQueue(ring, ref);
            }
        }
    }
}

TEST(Ring, StorageStaysReservedAcrossClear)
{
    Ring<QEntry> ring;
    EXPECT_EQ(ring.capacity(), 0u);
    for (std::uint32_t k = 0; k < 100; ++k)
        ring.push_back({k, k});
    std::size_t cap = ring.capacity();
    EXPECT_GE(cap, 100u);
    EXPECT_LT(cap, 150u) << "grows by half, not by doubling";
    ring.clear();
    EXPECT_TRUE(ring.empty());
    for (std::uint32_t k = 0; k < 100; ++k)
        ring.push_back({k, k});
    EXPECT_EQ(ring.capacity(), cap);
}

TEST(Ring, StorageNeverGrowsPastTheLimit)
{
    Ring<QEntry> ring(20);
    for (std::uint32_t k = 0; k < 20; ++k)
        ring.push_back({k, k});
    EXPECT_EQ(ring.capacity(), 20u);
    EXPECT_DEATH(ring.push_back({0, 0}), "ring over its limit");
    ring.erase(3);
    ring.insert(19, {7, 7});
    EXPECT_EQ(ring.size(), 20u);
    EXPECT_EQ(ring.capacity(), 20u);
}

// ---------------------------------------------------------------------
// SlotTable: differential against std::unordered_map
// ---------------------------------------------------------------------

namespace
{

/** The home bucket a key takes in a 16-bucket index (tables of
 *  capacity at most 12 never grow past 16 buckets). */
unsigned
home16(Addr key)
{
    return static_cast<unsigned>((key * 0x9e3779b97f4a7c15ULL) >> 60);
}

/** @p n line addresses whose 16-bucket home is @p bucket. */
std::vector<Addr>
keysWithHome(unsigned bucket, std::size_t n)
{
    std::vector<Addr> keys;
    for (Addr line = 0; keys.size() < n; ++line) {
        if (home16(line * 64) == bucket)
            keys.push_back(line * 64);
    }
    return keys;
}

/** Apply one find/insert/erase step to both tables and compare. */
void
stepBoth(SlotTable<int> &table, std::unordered_map<Addr, int> &ref,
         Rng &rng, const std::vector<Addr> &keys, int &value)
{
    Addr key = keys[rng.below(keys.size())];
    switch (rng.below(3)) {
      case 0: {
        int *found = table.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end()) << key;
        if (found) {
            ASSERT_EQ(*found, it->second);
        }
        break;
      }
      case 1:
        if (ref.contains(key) || ref.size() >= table.capacity()) {
            ASSERT_EQ(table.full(), ref.size() >= table.capacity());
            break;
        }
        table.insert(key) = value;
        ref.emplace(key, value);
        ++value;
        break;
      default:
        ASSERT_EQ(table.erase(key), ref.erase(key) == 1) << key;
        break;
    }
    ASSERT_EQ(table.size(), ref.size());
    ASSERT_EQ(table.empty(), ref.empty());
    ASSERT_EQ(table.full(), ref.size() >= table.capacity());
}

void
expectSameTable(const SlotTable<int> &table,
                const std::unordered_map<Addr, int> &ref,
                const std::vector<Addr> &keys)
{
    for (Addr key : keys) {
        const int *found = table.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end()) << key;
        if (found) {
            ASSERT_EQ(*found, it->second) << key;
        }
    }
}

} // namespace

TEST(SlotTable, MatchesUnorderedMapOnCollidingAndWrappingKeys)
{
    // Capacity 8 keeps the index at 16 buckets, so keys that share
    // bucket 3 form one long probe run, and keys homed at bucket 15
    // probe across the wrap to bucket 0: backward-shift deletion has
    // to move entries across both.
    std::vector<Addr> keys = keysWithHome(3, 6);
    for (Addr k : keysWithHome(15, 6))
        keys.push_back(k);
    for (Addr k : keysWithHome(0, 3))
        keys.push_back(k);
    keys.push_back(0); // the zero address is an ordinary key
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        SlotTable<int> table(8);
        std::unordered_map<Addr, int> ref;
        int value = 0;
        for (int step = 0; step < 20'000; ++step) {
            stepBoth(table, ref, rng, keys, value);
            if (HasFatalFailure())
                return;
            if (step % 64 == 0)
                expectSameTable(table, ref, keys);
        }
        expectSameTable(table, ref, keys);
        EXPECT_LE(table.slotsReserved(), 8u);
    }
}

TEST(SlotTable, MatchesUnorderedMapWhileGrowing)
{
    // A larger key space and capacity: slots are added and the index
    // doubles mid-trace, then a clear() empties the table with its
    // storage kept.
    std::vector<Addr> keys;
    for (Addr k = 0; k < 600; ++k)
        keys.push_back(k * 64 + 0x10000);
    Rng rng(7);
    SlotTable<int> table(300);
    std::unordered_map<Addr, int> ref;
    int value = 0;
    for (int step = 0; step < 50'000; ++step) {
        stepBoth(table, ref, rng, keys, value);
        if (HasFatalFailure())
            return;
    }
    expectSameTable(table, ref, keys);
    EXPECT_GT(table.slotsReserved(), 100u);
    EXPECT_LE(table.slotsReserved(), 300u);

    std::size_t reserved = table.slotsReserved();
    table.clear();
    ref.clear();
    expectSameTable(table, ref, keys);
    for (int step = 0; step < 20'000; ++step) {
        stepBoth(table, ref, rng, keys, value);
        if (HasFatalFailure())
            return;
    }
    expectSameTable(table, ref, keys);
    EXPECT_GE(table.slotsReserved(), reserved);
}

TEST(SlotTable, FullAndEmptyEdges)
{
    SlotTable<int> table(3);
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(0x40), nullptr);
    EXPECT_FALSE(table.erase(0x40));
    table.insert(0x40) = 1;
    table.insert(0x80) = 2;
    table.insert(0xc0) = 3;
    EXPECT_TRUE(table.full());
    EXPECT_DEATH(table.insert(0x100), "full slot table");
    EXPECT_TRUE(table.erase(0x80));
    EXPECT_FALSE(table.full());
    EXPECT_DEATH(table.insert(0x40), "duplicate slot table key");
    table.insert(0x100) = 4;
    EXPECT_EQ(*table.find(0x40), 1);
    EXPECT_EQ(table.find(0x80), nullptr);
    EXPECT_EQ(*table.find(0x100), 4);
    EXPECT_EQ(table.slotsReserved(), 3u);
    table.clear();
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(0x40), nullptr);

    // Emptied by erases, then cleared: every slot is still usable.
    table.insert(0x40) = 5;
    table.insert(0x80) = 6;
    EXPECT_TRUE(table.erase(0x40));
    EXPECT_TRUE(table.erase(0x80));
    table.clear();
    table.insert(0x200) = 7;
    table.insert(0x240) = 8;
    table.insert(0x280) = 9;
    EXPECT_TRUE(table.full());
    EXPECT_EQ(table.slotsReserved(), 3u);
    EXPECT_EQ(*table.find(0x240), 8);
}

TEST(SlotTable, RecycledSlotStartsValueInitialized)
{
    // Nothing of an erased key's value reaches the next key.
    SlotTable<int> table(1);
    table.insert(0x40) = 7;
    ASSERT_TRUE(table.erase(0x40));
    EXPECT_EQ(table.insert(0x1000), 0);
}
