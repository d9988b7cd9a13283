/**
 * @file
 * Miss Status Holding Registers: track in-flight line fills and
 * coalesce additional requests onto them.
 */

#ifndef MIGC_CACHE_MSHR_HH
#define MIGC_CACHE_MSHR_HH

#include <cstdint>

#include "mem/packet.hh"
#include "sim/slot_table.hh"
#include "sim/types.hh"

namespace migc
{

struct CacheBlk;

/** One in-flight fill and the requests waiting on it. */
struct Mshr
{
    Addr lineAddr = 0;

    /** The block reserved (busy) for this fill. */
    CacheBlk *blk = nullptr;

    /** The downstream fill packet's id (owned by the cache). */
    std::uint64_t fillPktId = 0;

    /** Requests to complete when the fill returns, oldest first. */
    PacketList targets;

    /** Length of @c targets. */
    std::uint32_t numTargets = 0;

    /** True once any coalesced target is a store (fill -> dirty). */
    bool hasStoreTarget = false;

    void
    addTarget(PacketPtr pkt)
    {
        targets.push_back(pkt);
        ++numTargets;
    }
};

/**
 * Fixed-capacity MSHR file keyed by line address. Its entries are
 * recycled slots (SlotTable) and their targets are chained through
 * the packets, so a warm file never allocates.
 */
class MshrFile
{
  public:
    MshrFile(std::size_t capacity, std::size_t max_targets);

    bool full() const { return entries_.full(); }

    std::size_t size() const { return entries_.size(); }

    std::size_t capacity() const { return entries_.capacity(); }

    /**
     * Find the MSHR covering @p line_addr, or nullptr. The pointer
     * is good until the next allocate().
     */
    Mshr *find(Addr line_addr) { return entries_.find(line_addr); }

    /**
     * Allocate an MSHR for @p line_addr (must not exist; file must
     * not be full).
     */
    Mshr &allocate(Addr line_addr, CacheBlk *blk,
                   std::uint64_t fill_pkt_id);

    /** True if another target can coalesce onto @p mshr. */
    bool
    canCoalesce(const Mshr &mshr) const
    {
        return mshr.numTargets < maxTargets_;
    }

    /** Release @p line_addr's MSHR. */
    void deallocate(Addr line_addr);

    /** Drop every entry (System::reset(); file is normally empty). */
    void clear() { entries_.clear(); }

  private:
    std::size_t maxTargets_;
    SlotTable<Mshr> entries_;
};

} // namespace migc

#endif // MIGC_CACHE_MSHR_HH
