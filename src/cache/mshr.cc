#include "cache/mshr.hh"

#include "sim/logging.hh"

namespace migc
{

MshrFile::MshrFile(std::size_t capacity, std::size_t max_targets)
    : maxTargets_(max_targets), entries_(capacity)
{
    fatal_if(capacity == 0, "MSHR file needs at least one entry");
    fatal_if(max_targets == 0, "MSHRs need at least one target slot");
}

Mshr &
MshrFile::allocate(Addr line_addr, CacheBlk *blk,
                   std::uint64_t fill_pkt_id)
{
    // insert() panics on a full file or a duplicate line.
    Mshr &m = entries_.insert(line_addr);
    m.lineAddr = line_addr;
    m.blk = blk;
    m.fillPktId = fill_pkt_id;
    return m;
}

void
MshrFile::deallocate(Addr line_addr)
{
    panic_if(!entries_.erase(line_addr),
             "deallocating unknown MSHR for line %#llx",
             static_cast<unsigned long long>(line_addr));
}

} // namespace migc
