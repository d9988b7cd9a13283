#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace migc
{

const char *
eventCategoryName(EventCategory c)
{
    switch (c) {
      case EventCategory::generic: return "generic";
      case EventCategory::gpu: return "gpu";
      case EventCategory::cache: return "cache";
      case EventCategory::mem: return "mem";
      case EventCategory::dram: return "dram";
      case EventCategory::stats: return "stats";
    }
    return "?";
}

Event::~Event()
{
    // Deschedule on destruction so tearing a system down mid-
    // simulation (e.g., after the workload completed but with idle
    // machinery events still pending) is safe.
    if (scheduled() && queue_ != nullptr)
        queue_->deschedule(this);
}

void
EventQueue::siftUp(std::size_t i)
{
    HeapSlot slot = heap_[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!before(slot, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        heap_[i].ev->heapIndex_ = i;
        i = parent;
    }
    heap_[i] = slot;
    slot.ev->heapIndex_ = i;
}

void
EventQueue::siftDown(std::size_t i)
{
    HeapSlot slot = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child]))
            ++child;
        if (!before(heap_[child], slot))
            break;
        heap_[i] = heap_[child];
        heap_[i].ev->heapIndex_ = i;
        i = child;
    }
    heap_[i] = slot;
    slot.ev->heapIndex_ = i;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    panic_if(ev == nullptr, "scheduling null event");
    panic_if(ev->scheduled(), "event '%s' already scheduled",
             ev->name().c_str());
    panic_if(when < curTick_,
             "event '%s' scheduled in the past (%llu < %llu)",
             ev->name().c_str(),
             static_cast<unsigned long long>(when),
             static_cast<unsigned long long>(curTick_));

    ev->when_ = when;
    ev->seq_ = nextSeq_++;
    ev->queue_ = this;

    const std::uint8_t slot = hintSlot(when, ev->priority_);
    ev->hintSlot_ = slot;
    Event *tail = hints_[slot];
    hints_[slot] = ev;
    if (tail != nullptr && tail->when_ == when &&
        tail->priority_ == ev->priority_) {
        // The hint names this key's newest run, so every event
        // queued for the key so far precedes ev: ev is its new tail.
        tail->runNext_ = ev;
        ev->runPrev_ = tail;
        ev->heapIndex_ = Event::followerIndex;
        return;
    }
    ev->heapIndex_ = heap_.size();
    heap_.push_back(HeapSlot{when, ev});
    if (ev->heapIndex_ > 0)
        siftUp(ev->heapIndex_);
}

void
EventQueue::deschedule(Event *ev)
{
    if (ev == nullptr || !ev->scheduled())
        return;
    // The links below are only meaningful in the owning queue; acting
    // on a foreign event would silently corrupt both queues.
    panic_if(ev->queue_ != this,
             "descheduling event '%s' from a queue it is not on",
             ev->name().c_str());

    Event *prev = ev->runPrev_;
    Event *next = ev->runNext_;
    if (next == nullptr)
        dropHint(ev);
    else
        next->runPrev_ = prev;

    const std::size_t i = ev->heapIndex_;
    if (prev != nullptr) {
        prev->runNext_ = next;
    } else if (next != nullptr) {
        // A run head with a successor: the successor shares its key
        // and precedes every other run's head the head preceded, so
        // it takes the slot as is.
        heap_[i].ev = next;
        next->heapIndex_ = i;
    } else {
        HeapSlot last = heap_.back();
        heap_.pop_back();
        if (i < heap_.size()) {
            // Refill the vacated slot with the former tail and
            // restore the heap property in whichever direction it
            // was violated.
            heap_[i] = last;
            last.ev->heapIndex_ = i;
            siftDown(i);
            if (last.ev->heapIndex_ == i)
                siftUp(i);
        }
    }
    ev->runPrev_ = nullptr;
    ev->runNext_ = nullptr;
    ev->heapIndex_ = Event::invalidIndex;
}

std::size_t
EventQueue::numPending() const
{
    std::size_t n = 0;
    for (const HeapSlot &slot : heap_) {
        for (const Event *ev = slot.ev; ev != nullptr; ev = ev->runNext_)
            ++n;
    }
    return n;
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::reset()
{
    for (HeapSlot &slot : heap_) {
        for (Event *ev = slot.ev; ev != nullptr;) {
            Event *next = ev->runNext_;
            ev->runPrev_ = nullptr;
            ev->runNext_ = nullptr;
            ev->heapIndex_ = Event::invalidIndex;
            ev->queue_ = nullptr;
            ev = next;
        }
    }
    heap_.clear();
    hints_.fill(nullptr);
    curTick_ = 0;
    nextSeq_ = 0;
    numProcessed_ = 0;
    processedByCategory_.fill(0);
}

Event *
EventQueue::popTop()
{
    Event *top = heap_.front().ev;
    Event *next = top->runNext_;
    if (next != nullptr) {
        // Same key, next in sequence: the successor is the new root
        // without a sift (see the run invariant in the file comment).
        next->runPrev_ = nullptr;
        next->heapIndex_ = 0;
        heap_.front().ev = next;
        top->runNext_ = nullptr;
    } else {
        // A lone head is its run's tail and has no predecessor.
        if (hints_[top->hintSlot_] == top)
            hints_[top->hintSlot_] = nullptr;
        HeapSlot last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) {
            heap_[0] = last;
            siftDown(0);
        }
    }
    top->heapIndex_ = Event::invalidIndex;
    return top;
}

void
EventQueue::serviceOne()
{
    panic_if(heap_.empty(), "serviceOne() on an empty event queue");

    Event *ev = popTop();
    panic_if(ev->when_ < curTick_, "time went backwards");
    curTick_ = ev->when_;
    ++numProcessed_;
    ++processedByCategory_[static_cast<std::size_t>(ev->category_)];
    if (logEnabled(LogLevel::trace)) {
        // The only place outside error paths that builds an event's
        // name string; unreachable at the default log level.
        inform("tick %llu: event %s",
               static_cast<unsigned long long>(curTick_),
               ev->name().c_str());
    }
    ev->process();
}

std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (!empty() && n < max_events) {
        serviceOne();
        ++n;
    }
    return n;
}

bool
EventQueue::runUntil(const std::function<bool()> &pred,
                     std::uint64_t max_events)
{
    std::uint64_t n = 0;
    if (pred())
        return true;
    while (!empty() && n < max_events) {
        serviceOne();
        ++n;
        if (pred())
            return true;
    }
    return false;
}

} // namespace migc
