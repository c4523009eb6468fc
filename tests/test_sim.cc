/**
 * @file
 * Simulation kernel tests: event queue ordering, timing, the pooled
 * node lifecycle, the timing-wheel/heap equivalence, and clock
 * domains. Every ordering test runs against both queue backends
 * (EvqImpl::Wheel and EvqImpl::Heap) — the two must be bit-identical
 * in execution order for the OBFUSMEM_EVQ_IMPL A/B knob to be a
 * valid cross-check.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"

using namespace obfusmem;

namespace {

class EventQueueImplTest : public ::testing::TestWithParam<EvqImpl>
{
};

class EventQueueImplDeathTest : public EventQueueImplTest
{
};

std::string
implName(const ::testing::TestParamInfo<EvqImpl> &info)
{
    return info.param == EvqImpl::Wheel ? "wheel" : "heap";
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Impls, EventQueueImplTest,
                         ::testing::Values(EvqImpl::Wheel, EvqImpl::Heap),
                         implName);
INSTANTIATE_TEST_SUITE_P(Impls, EventQueueImplDeathTest,
                         ::testing::Values(EvqImpl::Wheel, EvqImpl::Heap),
                         implName);

TEST_P(EventQueueImplTest, ExecutesInTimeOrder)
{
    EventQueue eq(GetParam());
    std::vector<int> order;
    eq.schedule(300, [&]() { order.push_back(3); });
    eq.schedule(100, [&]() { order.push_back(1); });
    eq.schedule(200, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST_P(EventQueueImplTest, SameTickIsFifo)
{
    EventQueue eq(GetParam());
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(50, [&order, i]() { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST_P(EventQueueImplTest, ScheduleAfterIsRelative)
{
    EventQueue eq(GetParam());
    Tick seen = 0;
    eq.schedule(100, [&]() {
        eq.scheduleAfter(50, [&]() { seen = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST_P(EventQueueImplTest, RunLimitStopsEarly)
{
    EventQueue eq(GetParam());
    int executed = 0;
    eq.schedule(100, [&]() { ++executed; });
    eq.schedule(200, [&]() { ++executed; });
    uint64_t count = eq.run(150);
    EXPECT_EQ(count, 1u);
    EXPECT_EQ(executed, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(executed, 2);
}

TEST_P(EventQueueImplTest, StepExecutesOne)
{
    EventQueue eq(GetParam());
    int executed = 0;
    eq.schedule(10, [&]() { ++executed; });
    eq.schedule(20, [&]() { ++executed; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(executed, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(executed, 2);
    EXPECT_FALSE(eq.step());
}

TEST_P(EventQueueImplTest, EventsCanScheduleEvents)
{
    EventQueue eq(GetParam());
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 100)
            eq.scheduleAfter(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.curTick(), 99u);
    EXPECT_EQ(eq.eventsExecuted(), 100u);
}

// Scheduling at curTick() from inside a running callback must execute
// later within the same tick, after events that were already queued
// for that tick, and before any later tick.
TEST_P(EventQueueImplTest, ScheduleAtCurTickInsideCallback)
{
    EventQueue eq(GetParam());
    std::vector<int> order;
    eq.schedule(50, [&]() {
        order.push_back(0);
        eq.schedule(eq.curTick(), [&]() {
            order.push_back(2); // after the pre-queued same-tick event
            EXPECT_EQ(eq.curTick(), 50u);
        });
        eq.scheduleAfter(0, [&]() { order.push_back(3); });
    });
    eq.schedule(50, [&]() { order.push_back(1); });
    eq.schedule(51, [&]() { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// run(limit) must leave curTick() == limit even when the queue drains
// before the limit — except for the limit == maxTick "drain" case,
// where time only advances as far as the last executed event.
TEST_P(EventQueueImplTest, RunAdvancesNowToLimit)
{
    EventQueue eq(GetParam());
    int executed = 0;
    eq.schedule(100, [&]() { ++executed; });
    EXPECT_EQ(eq.run(500), 1u);
    EXPECT_EQ(eq.curTick(), 500u);
    // An empty queue still advances to the limit.
    EXPECT_EQ(eq.run(700), 0u);
    EXPECT_EQ(eq.curTick(), 700u);
    // The drain case: now stays at the last event's tick.
    eq.schedule(900, [&]() { ++executed; });
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(eq.curTick(), 900u);
    EXPECT_EQ(executed, 2);
}

// run() returns the number of events executed by *that call* (the
// delta of eventsExecuted()), not a cumulative count.
TEST_P(EventQueueImplTest, RunReturnsExecutedDelta)
{
    EventQueue eq(GetParam());
    for (Tick t : {10u, 20u, 30u})
        eq.schedule(t, []() {});
    EXPECT_EQ(eq.run(), 3u);
    eq.schedule(1000, []() {});
    eq.schedule(2000, []() {});
    EXPECT_EQ(eq.run(), 2u);
    EXPECT_EQ(eq.eventsExecuted(), 5u);
}

// Regression for the old const_cast-move-out-of-top() hack: the
// callback must be invoked exactly once, and its capture destroyed
// promptly after the invocation — not parked in the queue until
// destruction time.
TEST_P(EventQueueImplTest, CallbackInvokedOnceAndDestroyedPromptly)
{
    EventQueue eq(GetParam());
    auto token = std::make_shared<int>(0);
    eq.schedule(10, [token]() { ++*token; });
    eq.schedule(20, []() {});
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(*token, 1);
    // The capture is gone even though the queue is still live.
    EXPECT_EQ(token.use_count(), 1);
    eq.run();
    EXPECT_EQ(*token, 1);
}

// Destroying the queue destroys pending captures without invoking
// them.
TEST_P(EventQueueImplTest, DestructorDestroysPendingCallbacks)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue eq(GetParam());
        eq.schedule(10, [token]() { ++*token; });
        eq.schedule(EventQueue::wheelSpan * 2, [token]() { ++*token; });
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 0);
}

// Events beyond the wheel horizon take the overflow heap and must
// still interleave correctly with near events — including FIFO
// ordering among same-tick events that entered through different
// tiers (a far-scheduled event must run before a later direct insert
// at the same tick).
TEST_P(EventQueueImplTest, FarEventsInterleaveAndStayFifo)
{
    EventQueue eq(GetParam());
    const Tick T = EventQueue::wheelSpan + 10;
    std::vector<int> order;
    eq.schedule(T, [&]() { order.push_back(1); }); // far at schedule time
    eq.schedule(T, [&]() { order.push_back(2); }); // far, same tick
    eq.schedule(20, [&]() {
        order.push_back(0);
        // Now T is inside the window: direct insert must land after
        // the two promoted events.
        eq.schedule(T, [&]() { order.push_back(3); });
    });
    eq.schedule(EventQueue::wheelSpan * 3, [&]() { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    if (GetParam() == EvqImpl::Wheel)
        EXPECT_GT(eq.overflowPromotions(), 0u);
    else
        EXPECT_EQ(eq.overflowPromotions(), 0u);
}

// One self-rescheduling event recycles a single pool node forever:
// the node is freed before the callback runs, so the rescheduled
// event reuses it and the high-water mark never grows.
TEST_P(EventQueueImplTest, PoolRecyclesNodes)
{
    EventQueue eq(GetParam());
    struct Chain
    {
        EventQueue *eq;
        int *count;
        void
        operator()()
        {
            if (++*count < 10000)
                eq->scheduleAfter(7, *this);
        }
    };
    int count = 0;
    eq.schedule(0, Chain{&eq, &count});
    eq.run();
    EXPECT_EQ(count, 10000);
    EXPECT_EQ(eq.poolHighWater(), 1u);
    EXPECT_EQ(eq.poolCapacity(), 1024u);
}

TEST_P(EventQueueImplDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq(GetParam());
    eq.schedule(100, []() {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, []() {}), "in the past");
}

// The two backends must execute a randomized storm of events —
// same-tick bursts, far ticks, reschedules from inside callbacks —
// in the exact same order. This is what makes OBFUSMEM_EVQ_IMPL a
// bit-identical A/B knob at the full-system level.
TEST(EventQueue, WheelAndHeapExecuteIdentically)
{
    auto storm = [](EvqImpl impl) {
        EventQueue eq(impl);
        std::vector<std::pair<Tick, int>> trace;
        uint64_t rng = 12345;
        auto next = [&rng]() {
            rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
            return rng >> 33;
        };
        int serial = 0;
        std::function<void(int)> fire = [&](int id) {
            trace.emplace_back(eq.curTick(), id);
            // Each event spawns 0..2 children at near/far/same ticks.
            for (uint64_t k = next() % 3; k > 0; --k) {
                if (trace.size() + serial > 4000)
                    break;
                const uint64_t r = next();
                Tick delay = (r % 5 == 0)
                                 ? 0 // same tick
                                 : (r % 5 == 1)
                                       ? EventQueue::wheelSpan + r % 100000
                                       : r % 3000;
                int child = ++serial;
                eq.scheduleAfter(delay,
                                 [&fire, child]() { fire(child); });
            }
        };
        for (int i = 0; i < 50; ++i) {
            int id = ++serial;
            eq.schedule(next() % 2000, [&fire, id]() { fire(id); });
        }
        eq.run();
        return trace;
    };
    auto wheel = storm(EvqImpl::Wheel);
    auto heap = storm(EvqImpl::Heap);
    ASSERT_GT(wheel.size(), 50u);
    EXPECT_EQ(wheel, heap);
}

TEST(EventQueue, DefaultImplIsWheel)
{
    // The OBFUSMEM_EVQ_IMPL knob is latched on first use; in the test
    // environment it is unset, so the default must be the wheel.
    EventQueue eq;
    EXPECT_EQ(eq.impl(), EvqImpl::Wheel);
}

TEST(EventQueue, AttachStatsExposesKernelCounters)
{
    statistics::Group root("system", nullptr);
    EventQueue eq;
    eq.attachStats(root);
    for (Tick t : {10u, 20u, 30u})
        eq.schedule(t, []() {});
    eq.run();
    std::ostringstream os;
    root.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("eventq.eventsExecuted"), std::string::npos);
    EXPECT_NE(text.find("eventq.poolHighWater"), std::string::npos);
    EXPECT_NE(text.find("eventq.overflowPromotions"), std::string::npos);
}

TEST(InlineFunction, MoveTransfersAndDestroysPromptly)
{
    auto token = std::make_shared<int>(0);
    InlineFunction<void(), 64> a([token]() { ++*token; });
    EXPECT_EQ(token.use_count(), 2);
    InlineFunction<void(), 64> b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT: moved-from probe
    ASSERT_TRUE(static_cast<bool>(b));
    EXPECT_EQ(token.use_count(), 2);
    b();
    EXPECT_EQ(*token, 1);
    b.reset();
    EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunction, AssignReplacesAndReleasesOldCapture)
{
    auto first = std::make_shared<int>(0);
    auto second = std::make_shared<int>(0);
    InlineFunction<void(), 64> cb([first]() { ++*first; });
    cb = InlineFunction<void(), 64>([second]() { ++*second; });
    EXPECT_EQ(first.use_count(), 1); // old capture destroyed
    cb();
    EXPECT_EQ(*first, 0);
    EXPECT_EQ(*second, 1);
}

TEST(ClockDomain, CoreClockIs2GHz)
{
    EXPECT_EQ(coreClock.period(), 500u);
    EXPECT_EQ(coreClock.cyclesToTicks(2), 1000u);
    EXPECT_EQ(coreClock.ticksToCycles(1499), 2u);
}

TEST(ClockDomain, BusClockIs800MHz)
{
    EXPECT_EQ(busClock.period(), 1250u);
}

TEST(ClockDomain, CryptoClockIs4ns)
{
    EXPECT_EQ(cryptoClock.period(), 4000u);
}

TEST(ClockDomain, FromMhz)
{
    EXPECT_EQ(ClockDomain::fromMhz(1000).period(), 1000u);
    EXPECT_EQ(ClockDomain::fromMhz(2000).period(), 500u);
}

TEST(ClockDomain, NextEdgeAligns)
{
    ClockDomain clk(100);
    EXPECT_EQ(clk.nextEdge(0), 0u);
    EXPECT_EQ(clk.nextEdge(1), 100u);
    EXPECT_EQ(clk.nextEdge(100), 100u);
    EXPECT_EQ(clk.nextEdge(101), 200u);
}

TEST(Types, TickConversions)
{
    EXPECT_EQ(tickPerNs, 1000u);
    EXPECT_EQ(tickPerUs, 1000000u);
    EXPECT_DOUBLE_EQ(ticksToNs(2500), 2.5);
}
