#include "mem/packet_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace migc
{

RespPacketQueue::RespPacketQueue(EventQueue &eq, ResponsePort &port,
                                 std::string name)
    : eventq_(eq), port_(port),
      drainEvent_([this] { drain(); }, name + ".drain",
                  Event::responsePriority, EventCategory::mem)
{}

void
RespPacketQueue::push(PacketPtr pkt, Tick ready)
{
    panic_if(ready < eventq_.curTick(), "response scheduled in the past");
    // Insertion sort from the back keeps the queue ordered; queues are
    // short and latencies near-constant, so this is effectively O(1).
    std::size_t pos = queue_.size();
    while (pos > 0 && queue_[pos - 1].ready > ready)
        --pos;
    queue_.insert(pos, Entry{ready, pkt});
    if (!drainEvent_.scheduled())
        eventq_.schedule(&drainEvent_, queue_.front().ready);
    else if (drainEvent_.when() > queue_.front().ready)
        eventq_.reschedule(&drainEvent_, queue_.front().ready);
}

void
RespPacketQueue::drain()
{
    Tick now = eventq_.curTick();
    while (!queue_.empty() && queue_.front().ready <= now) {
        PacketPtr pkt = queue_.front().pkt;
        queue_.pop_front();
        port_.sendTimingResp(pkt);
    }
    if (!queue_.empty())
        eventq_.schedule(&drainEvent_, queue_.front().ready);
}

ReqPacketQueue::ReqPacketQueue(EventQueue &eq, RequestPort &port,
                               std::string name, std::size_t max_size)
    : eventq_(eq), port_(port), maxSize_(max_size), queue_(max_size),
      sendEvent_([this] { trySend(); }, name + ".send",
                 Event::defaultPriority, EventCategory::mem)
{}

void
ReqPacketQueue::push(PacketPtr pkt, Tick ready)
{
    panic_if(full(), "push to full request queue");
    std::size_t pos = queue_.size();
    while (pos > 0 && queue_[pos - 1].ready > ready)
        --pos;
    queue_.insert(pos, Entry{ready, pkt});
    if (!waitingRetry_ && !sendEvent_.scheduled())
        eventq_.schedule(&sendEvent_, std::max(ready, eventq_.curTick()));
}

void
ReqPacketQueue::retry()
{
    if (!waitingRetry_)
        return;
    waitingRetry_ = false;
    if (!queue_.empty() && !sendEvent_.scheduled())
        eventq_.schedule(&sendEvent_, eventq_.curTick());
}

void
ReqPacketQueue::trySend()
{
    Tick now = eventq_.curTick();
    while (!queue_.empty() && queue_.front().ready <= now) {
        PacketPtr pkt = queue_.front().pkt;
        if (!port_.sendTimingReq(pkt)) {
            waitingRetry_ = true;
            return;
        }
        queue_.pop_front();
        if (spaceFreed_)
            spaceFreed_();
    }
    // The spaceFreed_ callback can re-enter push() (a waiter retried
    // into us synchronously), which may have re-armed the event.
    if (!queue_.empty() && !sendEvent_.scheduled())
        eventq_.schedule(&sendEvent_, queue_.front().ready);
}

} // namespace migc
