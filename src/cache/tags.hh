/**
 * @file
 * Set-associative tag store, laid out struct-of-arrays.
 *
 * The per-block metadata (`CacheBlk`) stays the external currency —
 * callers hold `CacheBlk *` and read its fields freely — but the
 * fields the hot paths scan are mirrored into contiguous per-set
 * lanes so lookups never stride through the 48-byte block structs:
 *
 *  - `addrs_`: one 64-bit line address per way (sentinel `kNoAddr`
 *    for non-present ways), the lane `findBlock` scans;
 *  - `states_`: the packed `BlkState` byte array the full-array
 *    sweeps (`invalidateClean`, `countState`, `forEachDirty`) scan;
 *  - `validBits_` / `busyBits_`: one bitmap word per set (way i =
 *    bit i). valid covers the readable states (valid | dirty), busy
 *    the fill-pending ways. `busyWays` is a single popcount and
 *    `findVictim` selects candidates straight off the words;
 *  - `replStamps_`: the replacement stamp `findVictim`'s
 *    full-candidate fast path min-scans (lastTouch under LRU,
 *    insertStamp under FIFO).
 *
 * Coherence rule: every state or address change of a resident block
 * MUST go through this class (`insert`, `setState`,
 * `invalidateBlock`, `touch`, `invalidateClean`, `reset`) so the
 * mirrors stay exact. `shadowCoherent()` verifies the invariant and
 * the test suites call it after randomized and golden runs.
 */

#ifndef MIGC_CACHE_TAGS_HH
#define MIGC_CACHE_TAGS_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_blk.hh"
#include "cache/repl_policy.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace migc
{

class Tags
{
  public:
    /**
     * @param interleave_bits low line-address bits to strip from the
     *        set index. A bank of an N-way banked cache only ever
     *        sees lines whose low log2(N) line bits equal its bank
     *        id, so those bits must not feed the set index or only
     *        1/N of the sets would ever be used.
     */
    Tags(std::uint64_t size_bytes, unsigned assoc, unsigned line_size,
         ReplKind repl, std::uint64_t seed = 1,
         unsigned interleave_bits = 0);

    unsigned numSets() const { return numSets_; }

    unsigned assoc() const { return assoc_; }

    unsigned lineSize() const { return lineSize_; }

    Addr lineAlign(Addr addr) const { return addr & ~lineMask_; }

    unsigned
    setIndex(Addr addr) const
    {
        return static_cast<unsigned>((addr >> setShift_) &
                                     (numSets_ - 1));
    }

    /** Find the block holding @p addr, or nullptr (any state). */
    CacheBlk *
    findBlock(Addr addr)
    {
        // One compare sweep over the set's address lane. Only
        // present ways hold a real address (non-present ways hold
        // kNoAddr, which is never line-aligned), so a lane match IS
        // a tag match, and the first match is the lowest way.
        const Addr line = lineAlign(addr);
        const std::size_t base =
            static_cast<std::size_t>(setIndex(addr)) * assoc_;
        const Addr *lanes = &addrs_[base];
        for (unsigned way = 0; way < assoc_; ++way) {
            if (lanes[way] == line)
                return &blocks_[base + way];
        }
        return nullptr;
    }

    /** Busy (fill-pending) ways in @p addr's set; feeds the adaptive
     *  occupancy-bypass policy. One popcount on the busy bitmap. */
    unsigned
    busyWays(Addr addr) const
    {
        return static_cast<unsigned>(
            std::popcount(busyBits_[setIndex(addr)]));
    }

    /**
     * Choose a victim way in @p addr's set: an invalid block if one
     * exists, else the replacement policy's pick among non-busy
     * blocks.
     * @return nullptr when every way is busy (allocation must block
     *         or bypass - the paper's Section VI.C.1 stall source).
     */
    CacheBlk *findVictim(Addr addr);

    /** Record a demand access to @p blk for replacement state. */
    void
    touch(CacheBlk *blk)
    {
        blk->lastTouch = ++stamp_;
        if (replKind_ != ReplKind::fifo)
            replStamps_[blockIndex(blk)] = stamp_;
    }

    /** Install @p addr into @p blk in @p state (never invalid). */
    void
    insert(CacheBlk *blk, Addr addr, BlkState state, Addr insert_pc)
    {
        panic_if(blk->isBusy(), "inserting over a busy block");
        panic_if(state == BlkState::invalid,
                 "inserting an invalid block");
        const Addr line = lineAlign(addr);
        blk->addr = line;
        blk->state = state;
        blk->insertPc = insert_pc;
        blk->reused = false;
        blk->insertStamp = ++stamp_;
        blk->lastTouch = stamp_;

        const std::size_t i = blockIndex(blk);
        addrs_[i] = line;
        states_[i] = static_cast<std::uint8_t>(state);
        replStamps_[i] = stamp_;
        setWayBits(i, state);
    }

    /**
     * Transition resident @p blk to @p state (valid <-> dirty, or a
     * fill's busy -> valid/dirty), keeping the packed state array
     * and the valid/busy bitmaps coherent. Use invalidateBlock() to
     * leave the cache.
     */
    void
    setState(CacheBlk *blk, BlkState state)
    {
        panic_if(state == BlkState::invalid,
                 "setState(invalid): use invalidateBlock()");
        panic_if(blk->state == BlkState::invalid,
                 "setState on a non-resident block");
        blk->state = state;
        const std::size_t i = blockIndex(blk);
        states_[i] = static_cast<std::uint8_t>(state);
        setWayBits(i, state);
    }

    /** Invalidate @p blk and drop it from the lookup lanes. */
    void
    invalidateBlock(CacheBlk *blk)
    {
        blk->invalidate();
        const std::size_t i = blockIndex(blk);
        addrs_[i] = kNoAddr;
        states_[i] = static_cast<std::uint8_t>(BlkState::invalid);
        setWayBits(i, BlkState::invalid);
    }

    /**
     * Self-invalidate every clean valid block (kernel-boundary
     * action, paper Section III). Dirty and busy blocks survive:
     * dirty data is only removed by a system-scope flush.
     * @return count invalidated.
     */
    std::uint64_t invalidateClean();

    /**
     * Visit every dirty block (order: set-major, way-minor) via a
     * byte scan of the state array. The callback binds statically
     * (no std::function) - this sits on the rinse/flush path. @p fn
     * may change the visited block's state (through
     * setState/invalidateBlock) but no other block's.
     */
    template <typename Fn>
    void
    forEachDirty(Fn &&fn)
    {
        forEachInState(BlkState::dirty,
                       [&](std::size_t i) { fn(blocks_[i]); });
    }

    /** Visit all blocks (tests / introspection). Mutating state or
     *  address directly from @p fn would desync the SoA mirrors. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (auto &blk : blocks_)
            fn(blk);
    }

    /** Count blocks in a given state (tests / stats). */
    std::uint64_t countState(BlkState state) const;

    /**
     * Invalidate every block and restart the replacement state
     * (stamps, RNG) as if freshly constructed with @p seed. Keeps
     * the block and scratch storage allocated (System::reset()).
     */
    void reset(std::uint64_t seed);

    /**
     * Verify every SoA mirror against the per-block metadata: the
     * address lane, the packed state array, both bitmaps, and the
     * replacement stamp lane. O(blocks); test and debug hook.
     */
    bool shadowCoherent() const;

    // --- set-dueling sample counters ---
    // Tags records where duel cost events land; what a set's role
    // means (leader/follower) and how samples move PSEL belong to
    // the PolicyEngine. Counters saturate and reset with the tags.

    /** Record one duel cost event against @p set. */
    void
    bumpDuelSample(unsigned set)
    {
        auto &c = duelSamples_[set];
        if (c < UINT16_MAX)
            ++c;
    }

    /** Cost events recorded against @p set this run. */
    std::uint16_t duelSamples(unsigned set) const
    {
        return duelSamples_[set];
    }

  private:
    /** Address-lane sentinel for non-present ways; never line-
     *  aligned (line size >= 2), so it can't match a lookup. */
    static constexpr Addr kNoAddr = ~Addr{0};

    std::size_t
    blockIndex(const CacheBlk *blk) const
    {
        return static_cast<std::size_t>(blk - blocks_.data());
    }

    /**
     * fn(i) for each block index i whose packed state is @p state, in
     * ascending order. Each byte is read right before its call, so
     * @p fn may change the state of the block it visits (the flush
     * path does) but no other block's.
     */
    template <typename Fn>
    void
    forEachInState(BlkState state, Fn &&fn)
    {
        const std::uint8_t key = static_cast<std::uint8_t>(state);
        const std::uint8_t *data = states_.data();
        const std::size_t n = states_.size();
        for (std::size_t i = 0; i < n; ++i) {
            if (data[i] == key)
                fn(i);
        }
    }

    /** Set way @p i's valid/busy bitmap bits for @p state. */
    void
    setWayBits(std::size_t i, BlkState state)
    {
        const unsigned set = static_cast<unsigned>(i / assoc_);
        const std::uint64_t bit = 1ULL << (i % assoc_);
        validBits_[set] = (state == BlkState::valid ||
                           state == BlkState::dirty)
                              ? validBits_[set] | bit
                              : validBits_[set] & ~bit;
        busyBits_[set] = state == BlkState::busy
                             ? busyBits_[set] | bit
                             : busyBits_[set] & ~bit;
    }

    unsigned numSets_;
    unsigned assoc_;
    unsigned lineSize_;
    Addr lineMask_;
    unsigned setShift_;
    /** All ways of one set, as a bitmap word. */
    std::uint64_t wayMask_;
    ReplKind replKind_;

    /** Per-block metadata (the external currency). */
    std::vector<CacheBlk> blocks_;
    // --- SoA mirrors (see file comment for the coherence rule) ---
    std::vector<Addr> addrs_;
    std::vector<std::uint8_t> states_;
    std::vector<std::uint64_t> validBits_;
    std::vector<std::uint64_t> busyBits_;
    std::vector<std::uint64_t> replStamps_;

    std::vector<std::uint16_t> duelSamples_;
    std::unique_ptr<ReplPolicy> repl_;
    std::uint64_t stamp_ = 0;
    /** Victim candidate buffer: assoc_ slots, allocated once. */
    std::unique_ptr<CacheBlk *[]> scratch_;
};

} // namespace migc

#endif // MIGC_CACHE_TAGS_HH
