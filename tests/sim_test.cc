/**
 * @file
 * Unit tests for the discrete-event simulation kernel: event ordering,
 * virtual time, coroutine tasks, futures, timeouts, and the
 * synchronization primitives.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/future.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

using namespace sim;
using common::kMicrosecond;
using common::kMillisecond;
using common::kSecond;

TEST(EventQueue, FiresInTimeOrder)
{
    Simulator s;
    std::vector<int> order;
    s.schedule(30, [&] { order.push_back(3); });
    s.schedule(10, [&] { order.push_back(1); });
    s.schedule(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30);
}

TEST(EventQueue, SameTimeIsFifo)
{
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        s.schedule(5, [&, i] { order.push_back(i); });
    s.run();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NestedSchedulingAdvancesTime)
{
    Simulator s;
    Time inner_fire = -1;
    s.schedule(10, [&] {
        s.schedule(15, [&] { inner_fire = s.now(); });
    });
    s.run();
    EXPECT_EQ(inner_fire, 25);
}

TEST(Simulator, RunUntilStopsAtBoundary)
{
    Simulator s;
    int fired = 0;
    s.schedule(10, [&] { ++fired; });
    s.schedule(20, [&] { ++fired; });
    s.schedule(30, [&] { ++fired; });
    s.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), 20);
    s.run();
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunForSetsStopRequested)
{
    Simulator s;
    bool saw_stop = false;
    std::function<void()> tick = [&] {
        if (s.stopRequested()) {
            saw_stop = true;
            return;
        }
        s.schedule(kMillisecond, tick);
    };
    s.schedule(0, tick);
    s.runFor(10 * kMillisecond);
    EXPECT_TRUE(saw_stop);
}

namespace {

Task<int>
addLater(Simulator &s, int a, int b)
{
    co_await sleepFor(s, 5 * kMicrosecond);
    co_return a + b;
}

Task<void>
outer(Simulator &s, int &result)
{
    const int x = co_await addLater(s, 2, 3);
    const int y = co_await addLater(s, x, 10);
    result = y;
}

} // namespace

TEST(Task, NestedAwaitPropagatesValues)
{
    Simulator s;
    int result = 0;
    spawn(outer(s, result));
    s.run();
    EXPECT_EQ(result, 15);
    EXPECT_EQ(s.now(), 10 * kMicrosecond);
}

TEST(Task, FramesRecycleThroughTheSimulatorPool)
{
    // Only the first call's frame is created before the run loop; every
    // later call's frame comes from the simulator's pool, which after
    // the first return always holds a free block of that size.
    Simulator s;
    int sum = 0;
    spawn([](Simulator &sim, int &out) -> Task<void> {
        for (int i = 0; i < 100; ++i)
            out += co_await addLater(sim, i, 0);
    }(s, sum));
    s.run();
    EXPECT_EQ(sum, 4950);
    EXPECT_LE(s.pool().freshAllocations(), 1u);
    EXPECT_GE(s.pool().reusedAllocations(), 98u);
}

TEST(Task, FrameFreedOutsideItsPoolsRunLoopGoesToTheHeap)
{
    // A frame goes back to its pool only when that pool's own run loop
    // frees it. One freed inside another simulator's run loop, or after
    // its own run loop ended, goes to the heap: no pool collects a
    // block it did not hand out or may not outlive.
    Simulator a, b;
    Task<int> crossed, late;
    a.schedule(0, [&] {
        crossed = addLater(a, 1, 2);
        late = addLater(a, 3, 4);
    });
    a.run();
    ASSERT_EQ(a.pool().freshAllocations(), 2u); // both frames from a's pool

    b.schedule(0, [&] { crossed = Task<int>(); });
    b.run();
    late = Task<int>();
    EXPECT_FALSE(crossed.valid());
    EXPECT_FALSE(late.valid());
    EXPECT_EQ(a.pool().freeBlocks(), 0u);
    EXPECT_EQ(b.pool().freeBlocks(), 0u);
}

TEST(Task, SpawnManyInterleave)
{
    Simulator s;
    int done = 0;
    auto worker = [&](int delay_us) -> Task<void> {
        co_await sleepFor(s, delay_us * kMicrosecond);
        ++done;
    };
    for (int i = 0; i < 50; ++i)
        spawn(worker(50 - i));
    s.run();
    EXPECT_EQ(done, 50);
}

TEST(Future, AwaitAlreadyResolved)
{
    Simulator s;
    Promise<int> p(s);
    p.set(42);
    int got = 0;
    auto reader = [&]() -> Task<void> { got = co_await p.future(); };
    spawn(reader());
    s.run();
    EXPECT_EQ(got, 42);
}

TEST(Future, MultipleWaitersAllWake)
{
    Simulator s;
    Promise<int> p(s);
    int sum = 0;
    auto reader = [&]() -> Task<void> { sum += co_await p.future(); };
    spawn(reader());
    spawn(reader());
    spawn(reader());
    s.schedule(100, [&] { p.set(7); });
    s.run();
    EXPECT_EQ(sum, 21);
}

TEST(Future, TimeoutFiresWhenUnresolved)
{
    Simulator s;
    Promise<int> p(s);
    bool timed_out = false;
    Time when = 0;
    auto reader = [&]() -> Task<void> {
        auto v = co_await p.future().withTimeout(kMillisecond);
        timed_out = !v.has_value();
        when = s.now();
    };
    spawn(reader());
    s.run();
    EXPECT_TRUE(timed_out);
    EXPECT_EQ(when, kMillisecond);
}

TEST(Future, TimeoutBeatenByValue)
{
    Simulator s;
    Promise<int> p(s);
    std::optional<int> got;
    auto reader = [&]() -> Task<void> {
        got = co_await p.future().withTimeout(kMillisecond);
    };
    spawn(reader());
    s.schedule(10 * kMicrosecond, [&] { p.set(5); });
    s.run();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 5);
}

TEST(Semaphore, LimitsConcurrency)
{
    Simulator s;
    Semaphore sem(s, 2);
    int active = 0;
    int max_active = 0;
    auto worker = [&]() -> Task<void> {
        co_await sem.acquire();
        ++active;
        max_active = std::max(max_active, active);
        co_await sleepFor(s, 10 * kMicrosecond);
        --active;
        sem.release();
    };
    for (int i = 0; i < 10; ++i)
        spawn(worker());
    s.run();
    EXPECT_EQ(active, 0);
    EXPECT_EQ(max_active, 2);
    EXPECT_EQ(sem.available(), 2);
}

TEST(Semaphore, FifoWakeOrder)
{
    Simulator s;
    Semaphore sem(s, 1);
    std::vector<int> order;
    auto worker = [&](int id) -> Task<void> {
        co_await sem.acquire();
        order.push_back(id);
        co_await sleepFor(s, kMicrosecond);
        sem.release();
    };
    for (int i = 0; i < 5; ++i)
        spawn(worker(i));
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Mutex, ExclusionAcrossAwaits)
{
    Simulator s;
    Mutex m(s);
    int inside = 0;
    bool violated = false;
    auto critical = [&]() -> Task<void> {
        co_await m.lock();
        LockGuard g(m);
        if (inside != 0)
            violated = true;
        ++inside;
        co_await sleepFor(s, 3 * kMicrosecond);
        --inside;
    };
    for (int i = 0; i < 8; ++i)
        spawn(critical());
    s.run();
    EXPECT_FALSE(violated);
    EXPECT_FALSE(m.locked());
}

TEST(Quorum, WakesAtThreshold)
{
    Simulator s;
    Quorum q(s, 2);
    Time woke_at = -1;
    auto waiter = [&]() -> Task<void> {
        co_await q.wait();
        woke_at = s.now();
    };
    spawn(waiter());
    s.schedule(10, [&] { q.arrive(); });
    s.schedule(20, [&] { q.arrive(); });
    s.schedule(30, [&] { q.arrive(); }); // late arrival: accepted, no-op
    s.run();
    EXPECT_EQ(woke_at, 20);
    EXPECT_EQ(q.arrived(), 3u);
}

TEST(Quorum, AlreadySatisfiedDoesNotBlock)
{
    Simulator s;
    Quorum q(s, 1);
    q.arrive();
    bool ran = false;
    auto waiter = [&]() -> Task<void> {
        co_await q.wait();
        ran = true;
    };
    spawn(waiter());
    s.run();
    EXPECT_TRUE(ran);
}
