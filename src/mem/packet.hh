/**
 * @file
 * Memory request/response packets.
 *
 * Ownership convention: a component deletes exactly the packets it
 * created, when their response returns (or when it consumes them).
 * A component that forwards someone else's packet never deletes it.
 */

#ifndef MIGC_MEM_PACKET_HH
#define MIGC_MEM_PACKET_HH

#include <cstdint>
#include <string>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace migc
{

/** Command carried by a packet. */
enum class MemCmd : std::uint8_t
{
    ReadReq,        ///< load / cache fill read
    ReadResp,
    WriteReq,       ///< store (write-through or to-be-coalesced)
    WriteResp,
    WritebackDirty, ///< dirty block eviction from a cache
    WritebackResp,
};

/** True for the request flavors of MemCmd. */
constexpr bool
isRequestCmd(MemCmd cmd)
{
    return cmd == MemCmd::ReadReq || cmd == MemCmd::WriteReq ||
           cmd == MemCmd::WritebackDirty;
}

/** True for commands that move data toward memory. */
constexpr bool
isWriteCmd(MemCmd cmd)
{
    return cmd == MemCmd::WriteReq || cmd == MemCmd::WritebackDirty;
}

/** Request attribute flags (bitmask). */
enum PacketFlags : std::uint32_t
{
    pktFlagNone = 0,
    /** Policy decided this access must not allocate in GPU caches. */
    pktFlagBypass = 1u << 0,
    /** Writeback generated by DBI row rinsing (for stats). */
    pktFlagRinse = 1u << 1,
    /** Request converted to bypass by allocation-bypass logic. */
    pktFlagAllocBypassed = 1u << 2,
    /** Writeback generated by an end-of-kernel dirty flush. */
    pktFlagFlush = 1u << 3,
};

/**
 * A single memory packet. Timing-only: no data payload is carried,
 * since the study concerns caching policy, not functional values.
 */
class Packet
{
  public:
    Packet(MemCmd cmd, Addr addr, unsigned size, Tick creation_tick)
        : id(nextId()), cmd(cmd), addr(addr),
          size(static_cast<std::uint16_t>(size)),
          creationTick(creation_tick)
    {}

    /** Globally unique, monotonically increasing packet id. */
    const std::uint64_t id;

    MemCmd cmd;

    /** A return-route field no hop has written. */
    static constexpr std::uint16_t noRoute = 0xffff;

    /**
     * Return routes, one field per hop that fans responses back out
     * (gem5's SenderState idea): a hop writes its field when it
     * accepts the request and reads it when the response passes back,
     * so no hop keeps a table keyed by packet id. A packet crosses
     * each kind of hop at most once on its way down (CU -> L1 ->
     * crossbar -> L2 -> DRAM), so one field per kind suffices.
     */
    std::uint16_t xbarInput = noRoute;  ///< crossbar input it entered
    std::uint16_t dramClient = noRoute; ///< DRAM controller client port
    std::uint16_t loadSlot = noRoute;   ///< issuing CU's wavefront slot

    /** Line-aligned physical address. */
    Addr addr;

    /**
     * Program counter of the static instruction that generated the
     * access; feeds the PC-indexed reuse predictor. Zero for
     * hardware-generated traffic (writebacks, rinses).
     */
    Addr pc = 0;

    /** Access size in bytes (one cache line). */
    std::uint16_t size;

    /** Issuing compute unit, or -1 for non-GPU traffic. */
    std::int16_t cuId = -1;

    std::uint32_t flags = pktFlagNone;

    /** Tick at which the original requester created the packet. */
    Tick creationTick;

    /** Link in the PacketList the packet waits on, if any. */
    Packet *nextTarget = nullptr;

    bool isRead() const { return cmd == MemCmd::ReadReq ||
                                 cmd == MemCmd::ReadResp; }

    bool isWrite() const { return isWriteCmd(cmd) ||
                                  cmd == MemCmd::WriteResp ||
                                  cmd == MemCmd::WritebackResp; }

    bool isRequest() const { return isRequestCmd(cmd); }

    bool isResponse() const { return !isRequestCmd(cmd); }

    bool hasFlag(PacketFlags f) const { return (flags & f) != 0; }

    void setFlag(PacketFlags f) { flags |= f; }

    /** Convert this request, in place, into its response. */
    void
    makeResponse()
    {
        switch (cmd) {
          case MemCmd::ReadReq:
            cmd = MemCmd::ReadResp;
            break;
          case MemCmd::WriteReq:
            cmd = MemCmd::WriteResp;
            break;
          case MemCmd::WritebackDirty:
            cmd = MemCmd::WritebackResp;
            break;
          default:
            panic("makeResponse() on a response packet");
        }
    }

    /** Short description for debug output. */
    std::string print() const;

  private:
    static std::uint64_t
    nextId()
    {
        // thread_local: parallel sweep runs create packets
        // concurrently, and a shared counter would both race and
        // ping-pong its cache line across every worker on the
        // hottest allocation path. Ids only need to be unique
        // within one run (a cache matches a returning fill or bypass
        // read to its MSHR or bypass entry by id, both per-System,
        // and a run is confined to one thread), which a per-thread
        // counter provides contention-free.
        static thread_local std::uint64_t counter = 0;
        return ++counter;
    }
};

// The pool holds a packet per request in flight, thousands at once:
// keep the return routes and the list link inside 56 bytes.
static_assert(sizeof(Packet) <= 56, "Packet grew");

using PacketPtr = Packet *;

/**
 * A FIFO of packets chained through Packet::nextTarget: the requests
 * waiting on one MSHR fill or one bypass read. A packet waits on at
 * most one list at a time, so a list needs no storage of its own and
 * coalescing never allocates, however many requests a line gathers.
 */
class PacketList
{
  public:
    bool empty() const { return head_ == nullptr; }

    void
    push_back(PacketPtr pkt)
    {
        panic_if(pkt->nextTarget != nullptr || pkt == tail_,
                 "packet %s already waits on a list", pkt->print().c_str());
        if (tail_ == nullptr)
            head_ = pkt;
        else
            tail_->nextTarget = pkt;
        tail_ = pkt;
    }

    /** Unlink and return the oldest packet (the list is not empty). */
    PacketPtr
    pop_front()
    {
        PacketPtr pkt = head_;
        head_ = pkt->nextTarget;
        pkt->nextTarget = nullptr;
        if (head_ == nullptr)
            tail_ = nullptr;
        return pkt;
    }

  private:
    PacketPtr head_ = nullptr;
    PacketPtr tail_ = nullptr;
};

} // namespace migc

#endif // MIGC_MEM_PACKET_HH
