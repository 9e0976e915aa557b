/**
 * @file
 * Unit tests for the discrete-event simulation kernel: event ordering,
 * virtual time, coroutine tasks, futures, timeouts, and the
 * synchronization primitives.
 */

#include <gtest/gtest.h>

#include <coroutine>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <utility>
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

namespace {

/** Waits on @p sem, logging @p id when it gets a unit. Holds it for
 *  @p hold, then releases. */
Task<void>
semWorker(Simulator &s, Semaphore &sem, int id, Duration hold,
          std::vector<int> &order)
{
    co_await sem.acquire();
    order.push_back(id);
    co_await sleepFor(s, hold);
    sem.release();
}

/** Takes @p mutex (a one-unit semaphore), logging @p id on entry;
 *  holds it for @p hold and lets a Held guard release it. */
Task<void>
mutexWorker(Simulator &s, Semaphore &mutex, int id, Duration hold,
            std::vector<int> &order)
{
    co_await mutex.acquire();
    Semaphore::Held held(mutex);
    order.push_back(id);
    co_await sleepFor(s, hold);
}

/**
 * Waiters arrive while others hold the primitive or are being woken
 * (the last one at the very instant of a handoff), each holding it for
 * 10 ns. The oldest waiter must get it every time, and waiting() must
 * count the queue at every probe. @p worker(id, order) starts one
 * waiter; @p waiting reads the primitive's queue length.
 */
template <typename Worker, typename Waiting>
void
expectInterleavedFifo(Simulator &s, Worker worker, Waiting waiting)
{
    std::vector<int> order;
    std::vector<std::size_t> seen;
    const Time arrivals[] = {0, 1, 2, 12, 13, 25, 26, 27, 40};
    for (int id = 0; id < 9; ++id)
        s.schedule(arrivals[id], [&, id] { spawn(worker(id, order)); });
    for (Time t : {1, 3, 11, 14, 21, 28, 31, 41, 51, 61, 71, 81})
        s.schedule(t, [&] { seen.push_back(waiting()); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2, 1, 3, 2, 5, 4, 4, 3,
                                              2, 1, 0}));
}

} // namespace

TEST(Semaphore, InterleavedWaitersWakeInArrivalOrder)
{
    Simulator s;
    Semaphore sem(s, 1);
    expectInterleavedFifo(
        s,
        [&](int id, std::vector<int> &order) {
            return semWorker(s, sem, id, 10, order);
        },
        [&] { return sem.waiting(); });
    EXPECT_EQ(sem.available(), 1);
}

TEST(OneUnitSemaphore, InterleavedWaitersWakeInArrivalOrder)
{
    Simulator s;
    Semaphore mutex(s, 1);
    expectInterleavedFifo(
        s,
        [&](int id, std::vector<int> &order) {
            return mutexWorker(s, mutex, id, 10, order);
        },
        [&] { return mutex.waiting(); });
    EXPECT_EQ(mutex.available(), 1);
}

namespace {

/** Where the last OwnedCoro frame was put, and its size. */
void *g_ownedFrame = nullptr;
std::size_t g_ownedFrameSize = 0;

/**
 * A coroutine the test owns outright: it starts eagerly, never frees
 * itself, and records its frame's address, so a test can compare the
 * frame's bytes before and after an operation.
 */
struct OwnedCoro
{
    struct promise_type
    {
        static void *
        operator new(std::size_t n)
        {
            g_ownedFrame = ::operator new(n);
            g_ownedFrameSize = n;
            return g_ownedFrame;
        }
        static void operator delete(void *p) { ::operator delete(p); }

        OwnedCoro
        get_return_object()
        {
            return OwnedCoro{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }
        std::suspend_never initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };

    explicit OwnedCoro(std::coroutine_handle<promise_type> h) : handle(h) {}
    OwnedCoro(OwnedCoro &&other) noexcept
        : handle(std::exchange(other.handle, nullptr))
    {
    }
    OwnedCoro &operator=(OwnedCoro &&) = delete;
    ~OwnedCoro()
    {
        if (handle)
            handle.destroy();
    }

    std::coroutine_handle<promise_type> handle;
};

OwnedCoro
acquireOnce(Semaphore &sem, bool &resumed)
{
    co_await sem.acquire();
    resumed = true;
}

/** A snapshot of an OwnedCoro frame (all of one size here). */
std::vector<unsigned char>
frameBytes(const void *frame)
{
    const auto *p = static_cast<const unsigned char *>(frame);
    return std::vector<unsigned char>(p, p + g_ownedFrameSize);
}

bool
frameUnchanged(const void *frame, const std::vector<unsigned char> &was)
{
    return std::memcmp(frame, was.data(), was.size()) == 0;
}

/**
 * Suspend three waiters on a primitive made by @p make, free the
 * middle one's frame, then destroy the primitive: the live frames'
 * bytes must be untouched and nobody resumes. (Under ASan, a walk of
 * the waiter list would also read the freed frame.)
 */
template <typename Primitive, typename Make, typename Wait>
void
destroyWithSuspendedWaiters(Make make, Wait wait)
{
    Simulator s;
    std::unique_ptr<Primitive> prim = make(s);
    bool resumed = false;
    std::vector<std::unique_ptr<OwnedCoro>> waiters;
    std::vector<void *> frames;
    for (int i = 0; i < 3; ++i) {
        waiters.push_back(
            std::make_unique<OwnedCoro>(wait(*prim, resumed)));
        frames.push_back(g_ownedFrame);
    }
    ASSERT_EQ(prim->waiting(), 3u);
    waiters[1].reset();
    const auto first = frameBytes(frames[0]);
    const auto last = frameBytes(frames[2]);

    prim.reset();
    EXPECT_TRUE(frameUnchanged(frames[0], first));
    EXPECT_TRUE(frameUnchanged(frames[2], last));
    s.run();
    EXPECT_FALSE(resumed);
}

} // namespace

TEST(Semaphore, DestroyedWithSuspendedWaitersTouchesNoFrame)
{
    destroyWithSuspendedWaiters<Semaphore>(
        [](Simulator &s) { return std::make_unique<Semaphore>(s, 0); },
        [](Semaphore &sem, bool &resumed) {
            return acquireOnce(sem, resumed);
        });
}

TEST(OneUnitSemaphore, DestroyedWithSuspendedWaitersTouchesNoFrame)
{
    destroyWithSuspendedWaiters<Semaphore>(
        [](Simulator &s) {
            auto mutex = std::make_unique<Semaphore>(s, 1);
            // Hold it (an acquire with no waiters completes inline).
            bool held = false;
            OwnedCoro holder = acquireOnce(*mutex, held);
            EXPECT_TRUE(held);
            return mutex;
        },
        [](Semaphore &mutex, bool &resumed) {
            return acquireOnce(mutex, resumed);
        });
}

TEST(OneUnitSemaphore, ExclusionAcrossAwaits)
{
    Simulator s;
    Semaphore mutex(s, 1);
    int inside = 0;
    bool violated = false;
    auto critical = [&]() -> Task<void> {
        co_await mutex.acquire();
        Semaphore::Held held(mutex);
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
    EXPECT_EQ(mutex.available(), 1);
}

TEST(SemaphoreDeathTest, ReleaseBeyondItsUnitsPanics)
{
    Simulator s;
    Semaphore mutex(s, 1);
    EXPECT_DEATH(mutex.release(), "released beyond its 1 units");
    Semaphore pool(s, 2);
    auto holder = [&]() -> Task<void> { co_await pool.acquire(); };
    spawn(holder());
    pool.release();
    EXPECT_EQ(pool.available(), 2);
    EXPECT_DEATH(pool.release(), "released beyond its 2 units");
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

TEST(SharedQuorum, LateArrivalsCountAfterTheWaiterReturns)
{
    // Replication's shape: the waiter needs one ack of three and
    // returns (dropping its handle) while two are still in flight.
    Simulator s;
    Time woke_at = -1;
    std::vector<std::uint32_t> seen;
    auto ack = [](Simulator &sim, SharedQuorum q, Duration delay,
                  std::vector<std::uint32_t> &seen) -> Task<void> {
        co_await sleepFor(sim, delay);
        q->arrive();
        seen.push_back(q->arrived());
    };
    auto waiter = [&]() -> Task<void> {
        SharedQuorum q(s, 1);
        for (Duration d : {10, 20, 30})
            spawn(ack(s, q, d, seen));
        co_await q->wait();
        woke_at = s.now();
    };
    spawn(waiter());
    s.run();
    EXPECT_EQ(woke_at, 10);
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(SharedQuorum, BlockReturnsToThePoolWithTheLastHandle)
{
    Simulator s;
    std::optional<SharedQuorum> first(std::in_place, s, 2);
    SharedQuorum second = *first;
    EXPECT_EQ(s.pool().freshAllocations(), 1u);
    first.reset();
    EXPECT_EQ(s.pool().freeBlocks(), 0u); // `second` still holds it
    second->arrive();
    EXPECT_EQ(second->arrived(), 1u);
    {
        SharedQuorum last = std::move(second);
        EXPECT_EQ(s.pool().freeBlocks(), 0u);
    }
    EXPECT_EQ(s.pool().freeBlocks(), 1u);

    SharedQuorum next(s, 1); // the recycled block, reset
    EXPECT_EQ(next->arrived(), 0u);
    EXPECT_FALSE(next->satisfied());
    EXPECT_EQ(s.pool().freshAllocations(), 1u);
}

TEST(SharedQuorum, PoolStaysFlatOverManyRounds)
{
    // 10k back-to-back rounds whose late acks overlap the next round:
    // after the first rounds, quorums and frames come from the pool.
    Simulator s;
    auto ack = [](Simulator &sim, SharedQuorum q,
                  Duration delay) -> Task<void> {
        co_await sleepFor(sim, delay);
        q->arrive();
    };
    std::uint64_t fresh_after_warmup = 0;
    auto rounds = [&]() -> Task<void> {
        for (int round = 0; round < 10'000; ++round) {
            if (round == 100)
                fresh_after_warmup = s.pool().freshAllocations();
            SharedQuorum q(s, 1);
            for (Duration d : {1, 2, 3})
                spawn(ack(s, q, d));
            co_await q->wait();
        }
    };
    spawn(rounds());
    s.run();
    ASSERT_GT(fresh_after_warmup, 0u);
    EXPECT_EQ(s.pool().freshAllocations(), fresh_after_warmup);
    EXPECT_GE(s.pool().reusedAllocations(), 30'000u);
}
