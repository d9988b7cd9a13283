/**
 * @file
 * A deterministic event queue: the heart of the simulator.
 *
 * Events are ordered by (tick, priority, insertion sequence). The
 * insertion sequence guarantees that two events scheduled for the same
 * tick and priority fire in scheduling order, which makes every
 * simulation bit-reproducible.
 *
 * Most events share their (tick, priority) key with the event popped
 * just before them: every CU, cache and queue clocked on one edge
 * fires in the same run. So the queue is an intrusive binary heap of
 * *runs*. The heap holds only the head event of each run; the run's
 * later events chain behind the head through intrusive links, in
 * sequence order. A schedule finds the run to join through a fixed
 * table of hints, one newest-run tail per hashed key; a miss (an
 * empty slot or another key's tail) starts a new run, which is always
 * correct, just less compact.
 *
 * The run invariant: a schedule only ever appends to its key's
 * *newest* run, so the runs of one key never interleave in sequence
 * order - every event of an older run precedes every event of a newer
 * one. The heap therefore keeps the exact (tick, priority, seq) order
 * over run heads, and popping or descheduling a head lets its
 * successor take the same slot with no sift: the successor is later
 * than the head but still earlier than anything the head was ordered
 * before. A follower unlinks in O(1). Nothing allocates after the
 * heap array has grown.
 */

#ifndef MIGC_SIM_EVENT_QUEUE_HH
#define MIGC_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace migc
{

class EventQueue;

/**
 * Coarse component attribution for events, so the perf harness can
 * report events/sec by component. Counting is a single array
 * increment on the service path.
 */
enum class EventCategory : std::uint8_t
{
    generic = 0, ///< uncategorized (tests, ad-hoc events)
    gpu,         ///< CU ticks, dispatcher machinery
    cache,       ///< cache retry/writeback-drain machinery
    mem,         ///< packet queues, crossbar
    dram,        ///< channel scheduling
    stats,
};

inline constexpr std::size_t numEventCategories = 6;

/** Short stable name for an event category ("gpu", "dram", ...). */
const char *eventCategoryName(EventCategory c);

/**
 * Base class for schedulable events.
 *
 * Events are owned by their creators (usually as members of
 * simulation objects) and must outlive any pending schedule.
 */
class Event
{
  public:
    /** Smaller value fires first within the same tick. */
    enum Priority : int
    {
        responsePriority = -10, ///< memory responses before new work
        defaultPriority = 0,
        cpuTickPriority = 10,   ///< periodic machinery after messages
        statsPriority = 100,
    };

    explicit Event(int priority = defaultPriority,
                   EventCategory category = EventCategory::generic)
        : priority_(priority), category_(category)
    {}

    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when the event fires. */
    virtual void process() = 0;

    /**
     * Human-readable description for debugging. Only called on error
     * and trace paths, both gated behind the active log level, so no
     * name string is ever built on the hot path.
     */
    virtual std::string name() const { return "anon-event"; }

    bool scheduled() const { return heapIndex_ != invalidIndex; }

    /** The tick this event is scheduled for (valid when scheduled()). */
    Tick when() const { return when_; }

    int priority() const { return priority_; }

    EventCategory category() const { return category_; }

  private:
    friend class EventQueue;

    static constexpr std::size_t invalidIndex = SIZE_MAX;
    /** heapIndex_ of a scheduled event queued behind its run's head. */
    static constexpr std::size_t followerIndex = SIZE_MAX - 1;

    // The fields a pop reads come first, so they share a cache line.
    Tick when_ = 0;
    std::uint64_t seq_ = 0;       ///< insertion-order tiebreak
    std::size_t heapIndex_ = invalidIndex; ///< slot of a run head
    Event *runNext_ = nullptr;    ///< next event of the same run
    int priority_ = defaultPriority;
    EventCategory category_ = EventCategory::generic;
    std::uint8_t hintSlot_ = 0;   ///< hint slot of (when_, priority_)
    Event *runPrev_ = nullptr;    ///< previous one; nullptr for a head
    EventQueue *queue_ = nullptr; ///< queue holding a live schedule
};

/** An event that runs a bound callable; saves one subclass per use. */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> callback,
                         std::string name,
                         int priority = defaultPriority,
                         EventCategory category = EventCategory::generic)
        : Event(priority, category), callback_(std::move(callback)),
          name_(std::move(name))
    {}

    void process() override { callback_(); }

    std::string name() const override { return name_; }

  private:
    std::function<void()> callback_;
    std::string name_;
};

/**
 * The global-per-simulation event queue.
 *
 * Every event tracks its own heap slot (run heads) or run links
 * (followers), so schedule/deschedule/reschedule are allocation-free
 * (amortized: the slot vector grows like any vector) and the heap
 * holds exactly one slot per pending run.
 */
class EventQueue
{
  public:
    EventQueue() { heap_.reserve(64); }

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** Schedule @p ev at absolute tick @p when (>= curTick). */
    void schedule(Event *ev, Tick when);

    /** Remove @p ev from the queue; no-op if not scheduled. */
    void deschedule(Event *ev);

    /** Deschedule if needed, then schedule at @p when. */
    void reschedule(Event *ev, Tick when);

    bool empty() const { return heap_.empty(); }

    /** Events scheduled and not yet serviced; walks every run, so
     *  O(pending) - a diagnostic, not for hot paths. */
    std::size_t numPending() const;

    /**
     * Heap slots currently in use: one per pending run, so never more
     * than numPending() (the regression test for stale-entry growth
     * asserts this stays bounded under heavy reschedule).
     */
    std::size_t heapSize() const { return heap_.size(); }

    /**
     * Return the queue to its just-constructed state while keeping
     * the heap array's capacity: every pending event is detached
     * (unscheduled, safe to destroy or reschedule), the clock returns
     * to tick 0, the insertion sequence restarts, and the processed
     * counters clear. Used by System::reset() so a worker can re-run
     * a simulation on warm storage; a reset queue is observationally
     * identical to a fresh one.
     */
    void reset();

    /** Pop and process exactly one event. Queue must not be empty. */
    void serviceOne();

    /**
     * Run until the queue is empty or @p max_events have been
     * processed.
     * @return number of events processed.
     */
    std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

    /**
     * Run until @p pred returns true (checked after each event), the
     * queue empties, or @p max_events is hit.
     * @return true iff @p pred was satisfied.
     */
    bool runUntil(const std::function<bool()> &pred,
                  std::uint64_t max_events = UINT64_MAX);

    /** Total events processed over the queue's lifetime. */
    std::uint64_t numProcessed() const { return numProcessed_; }

    /** Events processed attributed to @p c. */
    std::uint64_t
    numProcessed(EventCategory c) const
    {
        return processedByCategory_[static_cast<std::size_t>(c)];
    }

  private:
    /**
     * Heap slot of one run, holding its head: the fire tick is
     * duplicated next to the event pointer so the common compare
     * (distinct ticks) never chases the pointer; only tick ties
     * dereference for (priority, seq).
     */
    struct HeapSlot
    {
        Tick when;
        Event *ev;
    };

    static constexpr unsigned hintBits = 6;
    static constexpr std::size_t numHints = std::size_t{1} << hintBits;

    static std::uint8_t
    hintSlot(Tick when, int priority)
    {
        // Ticks are multiples of clock periods, so their low bits
        // carry little entropy; the multiply folds every bit into the
        // top hintBits.
        const std::uint64_t key =
            when ^ (static_cast<std::uint64_t>(
                        static_cast<std::uint32_t>(priority)) << 40);
        return static_cast<std::uint8_t>(
            (key * 0x9E3779B97F4A7C15ULL) >> (64 - hintBits));
    }

    /** True when @p a fires strictly before @p b. */
    static bool
    before(const HeapSlot &a, const HeapSlot &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.ev->priority_ != b.ev->priority_)
            return a.ev->priority_ < b.ev->priority_;
        return a.ev->seq_ < b.ev->seq_;
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    /** @p ev, a run's tail, is leaving: hand its hint to its
     *  predecessor, if the hint still names it. */
    void
    dropHint(const Event *ev)
    {
        Event *&hint = hints_[ev->hintSlot_];
        if (hint == ev)
            hint = ev->runPrev_;
    }

    /** Detach the earliest event and restore the heap. */
    Event *popTop();

    std::vector<HeapSlot> heap_;

    /**
     * Per hashed (tick, priority) key: the tail of the newest run of
     * the key last scheduled into the slot. A non-null hint is always
     * a scheduled event of this queue, so a hint never outlives the
     * event it names and may be dereferenced to check its key.
     */
    std::array<Event *, numHints> hints_{};
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t numProcessed_ = 0;
    std::array<std::uint64_t, numEventCategories> processedByCategory_{};
};

} // namespace migc

#endif // MIGC_SIM_EVENT_QUEUE_HH
