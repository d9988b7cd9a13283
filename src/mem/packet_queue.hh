/**
 * @file
 * Packet send queues that honor ready-ticks and retry flow control.
 *
 * RespPacketQueue delays responses until their ready tick, then
 * delivers them (responses are never refused).
 *
 * ReqPacketQueue delays requests, sends them in order, and handles
 * the busy/retry dance with the downstream port. It is bounded so
 * back-pressure propagates to the owner via full().
 *
 * Both keep their entries in a Ring sorted by ready tick: a push
 * walks back from the tail past later entries, so entries with equal
 * ready ticks leave in push order.
 */

#ifndef MIGC_MEM_PACKET_QUEUE_HH
#define MIGC_MEM_PACKET_QUEUE_HH

#include <cstddef>
#include <functional>
#include <string>

#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/event_queue.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace migc
{

/** Delayed, in-order delivery of responses through a ResponsePort. */
class RespPacketQueue
{
  public:
    RespPacketQueue(EventQueue &eq, ResponsePort &port, std::string name);

    /** Queue @p pkt for delivery at absolute tick @p ready (>= now). */
    void push(PacketPtr pkt, Tick ready);

    bool empty() const { return queue_.empty(); }

    std::size_t size() const { return queue_.size(); }

    /** Drop all entries (System::reset(); owner reclaims packets). */
    void reset() { queue_.clear(); }

  private:
    void drain();

    struct Entry
    {
        Tick ready;
        PacketPtr pkt;
    };

    EventQueue &eventq_;
    ResponsePort &port_;
    Ring<Entry> queue_; ///< sorted by ready tick (insertion sort)
    EventFunctionWrapper drainEvent_;
};

/**
 * Delayed, in-order delivery of requests through a RequestPort,
 * with retry handling. The owner must consult full() before pushing
 * and may register a callback to learn when space frees up.
 */
class ReqPacketQueue
{
  public:
    ReqPacketQueue(EventQueue &eq, RequestPort &port, std::string name,
                   std::size_t max_size);

    /** Queue @p pkt to be sent at/after absolute tick @p ready. */
    void push(PacketPtr pkt, Tick ready);

    bool full() const { return queue_.size() >= maxSize_; }

    bool empty() const { return queue_.size() == 0; }

    std::size_t size() const { return queue_.size(); }

    /** Owner forwards the port's recvReqRetry() here. */
    void retry();

    /** Invoked whenever an entry leaves the queue (space freed). */
    void
    onSpaceFreed(std::function<void()> cb)
    {
        spaceFreed_ = std::move(cb);
    }

    /** Drop all entries and any retry-wait (System::reset()). */
    void
    reset()
    {
        queue_.clear();
        waitingRetry_ = false;
    }

  private:
    void trySend();

    struct Entry
    {
        Tick ready;
        PacketPtr pkt;
    };

    EventQueue &eventq_;
    RequestPort &port_;
    std::size_t maxSize_;
    Ring<Entry> queue_; ///< sorted by ready tick (insertion sort)
    bool waitingRetry_ = false;
    std::function<void()> spaceFreed_;
    EventFunctionWrapper sendEvent_;
};

} // namespace migc

#endif // MIGC_MEM_PACKET_QUEUE_HH
