/** @file Unit tests for the event queue and events. */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace migc;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.numProcessed(), 0u);
}

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    EventFunctionWrapper a([&] { order.push_back(1); }, "a");
    EventFunctionWrapper b([&] { order.push_back(2); }, "b");
    EventFunctionWrapper c([&] { order.push_back(3); }, "c");
    eq.schedule(&c, 300);
    eq.schedule(&a, 100);
    eq.schedule(&b, 200);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, SameTickUsesPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    EventFunctionWrapper low([&] { order.push_back(1); }, "low",
                             Event::cpuTickPriority);
    EventFunctionWrapper hi([&] { order.push_back(2); }, "hi",
                            Event::responsePriority);
    EventFunctionWrapper first([&] { order.push_back(3); }, "first");
    EventFunctionWrapper second([&] { order.push_back(4); }, "second");
    eq.schedule(&low, 50);
    eq.schedule(&first, 50);
    eq.schedule(&second, 50);
    eq.schedule(&hi, 50);
    eq.run();
    // responsePriority first, then default in insertion order, then
    // cpuTickPriority.
    EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 1}));
}

TEST(EventQueue, DescheduleSkipsEvent)
{
    EventQueue eq;
    int fired = 0;
    EventFunctionWrapper a([&] { ++fired; }, "a");
    eq.schedule(&a, 10);
    EXPECT_TRUE(a.scheduled());
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    Tick fired_at = 0;
    EventFunctionWrapper a([&] { fired_at = eq.curTick(); }, "a");
    eq.schedule(&a, 10);
    eq.reschedule(&a, 99);
    eq.run();
    EXPECT_EQ(fired_at, 99u);
    EXPECT_EQ(eq.numProcessed(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int count = 0;
    EventFunctionWrapper chain(
        [&] {
            if (++count < 5)
                eq.schedule(&chain, eq.curTick() + 7);
        },
        "chain");
    eq.schedule(&chain, 0);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.curTick(), 28u);
}

TEST(EventQueue, RunUntilStopsOnPredicate)
{
    EventQueue eq;
    int count = 0;
    std::vector<EventFunctionWrapper *> events;
    EventFunctionWrapper a([&] { ++count; }, "a");
    EventFunctionWrapper b([&] { ++count; }, "b");
    EventFunctionWrapper c([&] { ++count; }, "c");
    eq.schedule(&a, 1);
    eq.schedule(&b, 2);
    eq.schedule(&c, 3);
    bool hit = eq.runUntil([&] { return count >= 2; });
    EXPECT_TRUE(hit);
    EXPECT_EQ(count, 2);
    eq.run(); // drain the rest so destruction is clean
}

TEST(EventQueue, RunRespectsMaxEvents)
{
    EventQueue eq;
    int count = 0;
    EventFunctionWrapper chain(
        [&] {
            ++count;
            eq.schedule(&chain, eq.curTick() + 1);
        },
        "chain");
    eq.schedule(&chain, 0);
    auto processed = eq.run(10);
    EXPECT_EQ(processed, 10u);
    EXPECT_EQ(count, 10);
    eq.deschedule(&chain);
}

TEST(EventQueue, DestructionWhileScheduledIsSafe)
{
    EventQueue eq;
    {
        EventFunctionWrapper a([] {}, "a");
        eq.schedule(&a, 10);
    } // destructor must deschedule
    EXPECT_TRUE(eq.empty());
    eq.run();
}

TEST(EventQueue, RescheduleStormStaysBounded)
{
    // Regression: the old lazy-deletion design left one stale heap
    // entry behind per reschedule, so a heavily rescheduled event
    // (the DRAM bank-timer pattern) grew the heap without bound. The
    // intrusive heap relocates the event in place: after a million
    // reschedules exactly one pending event and one heap slot exist.
    EventQueue eq;
    int fired = 0;
    EventFunctionWrapper timer([&] { ++fired; }, "timer");
    eq.schedule(&timer, 1);
    for (Tick i = 0; i < 1'000'000; ++i)
        eq.reschedule(&timer, i + 2);
    EXPECT_EQ(eq.numPending(), 1u);
    EXPECT_EQ(eq.heapSize(), 1u);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.numProcessed(), 1u);
    EXPECT_EQ(eq.heapSize(), 0u);
}

TEST(EventQueue, DescheduleFromTheMiddleKeepsOrder)
{
    // Removing an interior heap element must preserve the firing
    // order of everything else (exercises the sift-up path of the
    // removal, which a pop-only heap never hits).
    EventQueue eq;
    std::vector<int> order;
    std::vector<std::unique_ptr<EventFunctionWrapper>> evs;
    for (int i = 0; i < 64; ++i) {
        evs.push_back(std::make_unique<EventFunctionWrapper>(
            [&order, i] { order.push_back(i); }, "e"));
        eq.schedule(evs[static_cast<std::size_t>(i)].get(),
                    static_cast<Tick>(100 + i));
    }
    // Deschedule every third event.
    std::vector<int> expect;
    for (int i = 0; i < 64; ++i) {
        if (i % 3 == 0)
            eq.deschedule(evs[static_cast<std::size_t>(i)].get());
        else
            expect.push_back(i);
    }
    eq.run();
    EXPECT_EQ(order, expect);
}

TEST(EventQueue, CountsProcessedByCategory)
{
    EventQueue eq;
    EventFunctionWrapper generic([] {}, "g");
    EventFunctionWrapper dram1([] {}, "d1", Event::defaultPriority,
                               EventCategory::dram);
    EventFunctionWrapper dram2([] {}, "d2", Event::defaultPriority,
                               EventCategory::dram);
    EventFunctionWrapper gpu([] {}, "cu", Event::cpuTickPriority,
                             EventCategory::gpu);
    eq.schedule(&generic, 1);
    eq.schedule(&dram1, 2);
    eq.schedule(&dram2, 3);
    eq.schedule(&gpu, 4);
    eq.run();
    EXPECT_EQ(eq.numProcessed(), 4u);
    EXPECT_EQ(eq.numProcessed(EventCategory::generic), 1u);
    EXPECT_EQ(eq.numProcessed(EventCategory::dram), 2u);
    EXPECT_EQ(eq.numProcessed(EventCategory::gpu), 1u);
    EXPECT_EQ(eq.numProcessed(EventCategory::cache), 0u);
    EXPECT_EQ(eq.numProcessed(EventCategory::mem), 0u);
}

TEST(EventQueue, CategoryNamesAreStable)
{
    EXPECT_STREQ(eventCategoryName(EventCategory::generic), "generic");
    EXPECT_STREQ(eventCategoryName(EventCategory::gpu), "gpu");
    EXPECT_STREQ(eventCategoryName(EventCategory::cache), "cache");
    EXPECT_STREQ(eventCategoryName(EventCategory::mem), "mem");
    EXPECT_STREQ(eventCategoryName(EventCategory::dram), "dram");
    EXPECT_STREQ(eventCategoryName(EventCategory::stats), "stats");
}

TEST(EventQueue, DeterministicTieBreaking)
{
    // Two runs with identical scheduling produce identical order.
    auto run_once = [] {
        EventQueue eq;
        std::vector<int> order;
        std::vector<std::unique_ptr<EventFunctionWrapper>> evs;
        for (int i = 0; i < 32; ++i) {
            evs.push_back(std::make_unique<EventFunctionWrapper>(
                [&order, i] { order.push_back(i); }, "e"));
            eq.schedule(evs.back().get(), 5);
        }
        eq.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(EventQueue, DescheduleHeadMiddleAndTailOfARun)
{
    // Six events share one (tick, priority) key and so one run.
    // Removing its head hands the heap slot to the successor,
    // removing a follower unlinks it, and removing the tail moves the
    // run's hint back, so a later same-key event still joins the run
    // and fires last.
    EventQueue eq;
    std::vector<int> order;
    std::vector<std::unique_ptr<EventFunctionWrapper>> evs;
    for (int i = 0; i < 7; ++i) {
        evs.push_back(std::make_unique<EventFunctionWrapper>(
            [&order, i] { order.push_back(i); }, "e"));
    }
    EventFunctionWrapper earlier([&order] { order.push_back(-1); }, "x");
    for (int i = 0; i < 6; ++i)
        eq.schedule(evs[static_cast<std::size_t>(i)].get(), 40);
    eq.schedule(&earlier, 30);
    EXPECT_EQ(eq.heapSize(), 2u);

    eq.deschedule(evs[0].get()); // head
    eq.deschedule(evs[3].get()); // middle
    eq.deschedule(evs[5].get()); // tail
    EXPECT_EQ(eq.numPending(), 4u);
    EXPECT_FALSE(evs[5]->scheduled());
    eq.schedule(evs[6].get(), 40);
    EXPECT_EQ(eq.heapSize(), 2u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 1, 2, 4, 6}));
}

TEST(EventQueue, EventDestroyedAfterPopWhileItWasTheHint)
{
    // A popped run tail must not stay behind as its key's hint: the
    // next same-key schedule would follow a dangling pointer (the
    // sanitizer leg turns that into a failure).
    EventQueue eq;
    int fired = 0;
    auto lone = std::make_unique<EventFunctionWrapper>([&] { ++fired; },
                                                       "lone");
    eq.schedule(lone.get(), 10);
    eq.serviceOne();
    lone.reset();

    // The tail of a two-event run is descheduled, so the head becomes
    // the hint; popping the head must then clear it.
    auto head = std::make_unique<EventFunctionWrapper>([&] { ++fired; },
                                                       "head");
    auto tail = std::make_unique<EventFunctionWrapper>([&] { ++fired; },
                                                       "tail");
    eq.schedule(head.get(), 10);
    eq.schedule(tail.get(), 10);
    eq.deschedule(tail.get());
    eq.serviceOne();
    head.reset();
    tail.reset();

    EventFunctionWrapper next([&] { ++fired; }, "next");
    eq.schedule(&next, 10);
    EXPECT_EQ(eq.heapSize(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, ResetInTheMiddleOfARun)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<std::unique_ptr<EventFunctionWrapper>> evs;
    for (int i = 0; i < 5; ++i) {
        evs.push_back(std::make_unique<EventFunctionWrapper>(
            [&order, i] { order.push_back(i); }, "e"));
        eq.schedule(evs.back().get(), 7);
    }
    eq.serviceOne();
    eq.serviceOne();
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.numPending(), 0u);
    for (const auto &ev : evs)
        EXPECT_FALSE(ev->scheduled());

    // Every detached event, popped or not, schedules afresh.
    for (int i = 4; i >= 0; --i)
        eq.schedule(evs[static_cast<std::size_t>(i)].get(), 7);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 4, 3, 2, 1, 0}));
}

namespace
{

/**
 * Drives one EventQueue and a naive ordered set of
 * (tick, priority, seq, id) with the same calls and checks that they
 * agree on every pop, on every event's scheduled() state, and on the
 * pending count.
 */
class QueueDifferential
{
  public:
    QueueDifferential(std::uint64_t seed, std::size_t num_events)
        : rng_(seed), live_(num_events, false), keys_(num_events)
    {
        static constexpr int kPriorities[] = {
            Event::responsePriority, Event::defaultPriority,
            Event::cpuTickPriority, Event::statsPriority};
        for (std::size_t i = 0; i < num_events; ++i) {
            events_.push_back(std::make_unique<EventFunctionWrapper>(
                [this, i] { fired(i); }, "diff",
                kPriorities[rng_.below(4)]));
        }
    }

    /** One random call; returns false when the queue drained. */
    void
    randomOp()
    {
        const std::size_t id = rng_.below(events_.size());
        const std::uint64_t op = rng_.below(100);
        if (op < 40) {
            if (!live_[id])
                schedule(id, randomTick());
        } else if (op < 50) {
            deschedule(id);
        } else if (op < 60) {
            deschedule(id);
            schedule(id, randomTick());
        } else if (op < 99) {
            step();
        } else if (rng_.below(20) == 0) {
            reset();
        }
        check(id);
    }

    /** Pop until empty. */
    void
    drain()
    {
        while (!ref_.empty())
            step();
        EXPECT_TRUE(eq_.empty());
    }

    std::uint64_t pops() const { return pops_; }
    std::size_t maxLiveKeys() const { return maxLiveKeys_; }

  private:
    using Key = std::tuple<Tick, int, std::uint64_t, std::size_t>;

    /** Dense ties on a few near ticks, with a long tail of distinct
     *  ticks so that far more than 64 keys are live at once. */
    Tick
    randomTick()
    {
        const Tick now = eq_.curTick();
        if (rng_.below(4) != 0)
            return now + 10 * rng_.below(4);
        return now + 10 * rng_.below(400);
    }

    void
    schedule(std::size_t id, Tick when)
    {
        EventFunctionWrapper *ev = events_[id].get();
        eq_.reschedule(ev, when);
        keys_[id] = Key{when, ev->priority(), nextSeq_++, id};
        ref_.insert(keys_[id]);
        live_[id] = true;
        trackKeys();
    }

    void
    deschedule(std::size_t id)
    {
        eq_.deschedule(events_[id].get());
        if (live_[id]) {
            ref_.erase(keys_[id]);
            live_[id] = false;
        }
    }

    void
    step()
    {
        if (ref_.empty()) {
            EXPECT_TRUE(eq_.empty());
            return;
        }
        expected_ = *ref_.begin();
        ref_.erase(ref_.begin());
        live_[std::get<3>(expected_)] = false;
        eq_.serviceOne();
    }

    void
    fired(std::size_t id)
    {
        ++pops_;
        ASSERT_EQ(id, std::get<3>(expected_)) << "pop " << pops_;
        ASSERT_EQ(eq_.curTick(), std::get<0>(expected_));
        // Schedule from inside process(): at the current tick, mostly
        // with a lower priority than the firing event (so the same
        // tick runs on), sometimes at a higher one.
        for (int n = 0; n < 2; ++n) {
            const std::size_t other = rng_.below(events_.size());
            if (!live_[other] && rng_.below(2) == 0)
                schedule(other, eq_.curTick());
        }
    }

    void
    reset()
    {
        eq_.reset();
        ref_.clear();
        std::fill(live_.begin(), live_.end(), false);
        nextSeq_ = 0;
    }

    void
    check(std::size_t id)
    {
        const EventFunctionWrapper &ev = *events_[id];
        EXPECT_EQ(ev.scheduled(), live_[id]);
        if (live_[id]) {
            EXPECT_EQ(ev.when(), std::get<0>(keys_[id]));
        }
        EXPECT_EQ(eq_.numPending(), ref_.size());
        EXPECT_LE(eq_.heapSize(), eq_.numPending());
    }

    void
    trackKeys()
    {
        if (ref_.size() <= maxLiveKeys_ || (nextSeq_ & 63) != 0)
            return;
        std::set<std::pair<Tick, int>> keys;
        for (const Key &k : ref_)
            keys.emplace(std::get<0>(k), std::get<1>(k));
        maxLiveKeys_ = std::max(maxLiveKeys_, keys.size());
    }

    EventQueue eq_;
    Rng rng_;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events_;
    std::vector<bool> live_;
    std::vector<Key> keys_;
    std::set<Key> ref_;
    Key expected_{};
    std::uint64_t nextSeq_ = 0;
    std::uint64_t pops_ = 0;
    std::size_t maxLiveKeys_ = 0;
};

} // namespace

TEST(EventQueue, MatchesANaiveOrderedSetUnderRandomCalls)
{
    std::uint64_t pops = 0;
    std::size_t max_keys = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        QueueDifferential diff(seed, 400);
        for (int i = 0; i < 4000; ++i)
            diff.randomOp();
        diff.drain();
        if (::testing::Test::HasFatalFailure())
            return;
        pops += diff.pops();
        max_keys = std::max(max_keys, diff.maxLiveKeys());
    }
    EXPECT_GT(pops, 200'000u);
    // Hint slots must collide for the miss path to be exercised.
    EXPECT_GT(max_keys, 64u);
}
