/**
 * @file
 * Simulator-core microbenchmark: raw event throughput and per-event
 * heap traffic for the DES hot paths the whole reproduction stands on.
 *
 * Scenarios:
 *  - timer_ring:          N self-rescheduling timers (the steady-state
 *                         shape of GC sweeps, lease renewals, clock
 *                         sync). The pass/fail bar for "zero heap
 *                         allocations per steady-state timer event".
 *  - same_instant_burst:  fan-out of zero-delay events at one instant
 *                         (future resolution storms, semaphore pumps) —
 *                         exercises the event queue's same-instant path.
 *  - future_pingpong:     promise/future resolve + co_await per
 *                         iteration — exercises FutureState allocation.
 *  - timeout_race:        Future::withTimeout where the value beats the
 *                         timer — the combinator's bookkeeping cost.
 *  - metrics_ring:        timer_ring with the metrics plane on: every
 *                         tick bumps counters and a histogram in a
 *                         StatSet a MetricsRegistry samples on a fixed
 *                         interval. The pass/fail bar for "zero heap
 *                         allocations per event with sampling enabled"
 *                         (pre-sized rings, pointer-keyed snapshot
 *                         maps).
 *
 * Heap traffic is measured by interposing global operator new/delete in
 * this binary (counts + bytes), so "allocs/event" is exact, not
 * sampled. Wall-clock events/sec is the headline number tracked by
 * BENCH_sim_core.json and the CI regression gate (>20% drop fails).
 *
 * Flags: --events=N per-scenario target (default 2,000,000), --full
 * (10x), --json=PATH (milana-bench-v1).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "sim/future.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

// ---------------------------------------------------------------------
// Interposed allocation counter. Every global new/delete in this binary
// funnels through here; the scenarios read deltas around the measured
// window.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_allocCalls{0};
std::atomic<std::uint64_t> g_allocBytes{0};
std::atomic<std::uint64_t> g_freeCalls{0};

void *
countedAlloc(std::size_t size)
{
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(size, std::memory_order_relaxed);
    void *p = std::malloc(size ? size : 1);
    if (!p)
        std::abort();
    return p;
}

void
countedFree(void *p) noexcept
{
    if (!p)
        return;
    g_freeCalls.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

namespace {

using common::Duration;
using common::kMicrosecond;

struct ScenarioResult
{
    std::string name;
    std::uint64_t events = 0;
    double seconds = 0;
    double allocsPerEvent = 0;
    double bytesPerEvent = 0;
};

struct AllocSnapshot
{
    std::uint64_t calls;
    std::uint64_t bytes;

    static AllocSnapshot
    take()
    {
        return {g_allocCalls.load(std::memory_order_relaxed),
                g_allocBytes.load(std::memory_order_relaxed)};
    }
};

double
wallSeconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * Self-rescheduling timer: the steady-state periodic-process shape.
 * The capture is 32 bytes — matching this codebase's real timers (GC
 * sweeps, lease renewals, sync exchanges capture `this` plus an epoch
 * or stats pointer), which is past std::function's 16-byte SBO.
 */
struct Tick
{
    sim::Simulator *sim;
    std::uint64_t *fired;
    Duration period;
    std::uint64_t id;

    void
    operator()() const
    {
        ++*fired;
        sim->schedule(period, Tick{*this});
    }
};

ScenarioResult
timerRing(std::uint64_t target_events)
{
    sim::Simulator sim;
    std::uint64_t fired = 0;
    constexpr std::uint32_t kTimers = 64;
    for (std::uint32_t i = 0; i < kTimers; ++i) {
        // Spread periods so instants hit the time-ordered path as well
        // as the same-instant path.
        const Duration period = (1 + i % 7) * kMicrosecond;
        sim.schedule(period, Tick{&sim, &fired, period, i});
    }
    // Warm up: grows the queue's storage and fills any free lists so
    // the measured window sees steady state only.
    sim.runUntil(200 * kMicrosecond);

    // Each timer fires 1/period times per us; with ~9 timers on each
    // period in {1..7}us that is ~24 events/us of virtual time.
    const Duration horizon =
        static_cast<Duration>(target_events / 24 + 1) * kMicrosecond;

    const AllocSnapshot before = AllocSnapshot::take();
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t processed =
        sim.runUntil(sim.now() + horizon);
    const double secs = wallSeconds(start);
    const AllocSnapshot after = AllocSnapshot::take();

    ScenarioResult r;
    r.name = "timer_ring";
    r.events = processed;
    r.seconds = secs;
    r.allocsPerEvent =
        static_cast<double>(after.calls - before.calls) /
        static_cast<double>(processed ? processed : 1);
    r.bytesPerEvent = static_cast<double>(after.bytes - before.bytes) /
                      static_cast<double>(processed ? processed : 1);
    return r;
}

/** Zero-delay fan-out: one driver schedules a burst at "now". */
struct Burst
{
    sim::Simulator *sim;
    std::uint64_t *sink;

    void
    operator()() const
    {
        constexpr int kBurst = 256;
        for (int i = 0; i < kBurst; ++i) {
            std::uint64_t *s = sink;
            sim->schedule(0, [s] { ++*s; });
        }
        sim->schedule(kMicrosecond, Burst{*this});
    }
};

ScenarioResult
sameInstantBurst(std::uint64_t target_events)
{
    sim::Simulator sim;
    std::uint64_t sink = 0;
    sim.schedule(0, Burst{&sim, &sink});
    sim.runUntil(100 * kMicrosecond); // warm-up

    const Duration horizon =
        static_cast<Duration>(target_events / 257 + 1) * kMicrosecond;

    const AllocSnapshot before = AllocSnapshot::take();
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t processed = sim.runUntil(sim.now() + horizon);
    const double secs = wallSeconds(start);
    const AllocSnapshot after = AllocSnapshot::take();

    ScenarioResult r;
    r.name = "same_instant_burst";
    r.events = processed;
    r.seconds = secs;
    r.allocsPerEvent =
        static_cast<double>(after.calls - before.calls) /
        static_cast<double>(processed ? processed : 1);
    r.bytesPerEvent = static_cast<double>(after.bytes - before.bytes) /
                      static_cast<double>(processed ? processed : 1);
    return r;
}

/** One promise/future round trip per iteration. */
sim::Task<void>
pingpongLoop(sim::Simulator &sim, std::uint64_t iters,
             std::uint64_t *done)
{
    for (std::uint64_t i = 0; i < iters; ++i) {
        sim::Promise<std::uint64_t> p(sim);
        sim.schedule(kMicrosecond, [p, i]() mutable { p.set(i); });
        const std::uint64_t v = co_await p.future();
        *done += (v == i);
    }
}

ScenarioResult
futurePingpong(std::uint64_t target_events)
{
    // Each iteration is ~3 simulator events (set, waiter resume, next
    // loop's timer); size iterations accordingly.
    const std::uint64_t iters = target_events / 3 + 1;

    sim::Simulator sim;
    std::uint64_t done = 0;
    // Warm-up round primes the pool / queue storage.
    sim::spawn(pingpongLoop(sim, 1000, &done));
    sim.run();

    sim::spawn(pingpongLoop(sim, iters, &done));
    const AllocSnapshot before = AllocSnapshot::take();
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t processed = sim.run();
    const double secs = wallSeconds(start);
    const AllocSnapshot after = AllocSnapshot::take();

    if (done != iters + 1000)
        PANIC("future_pingpong lost iterations");

    ScenarioResult r;
    r.name = "future_pingpong";
    r.events = processed;
    r.seconds = secs;
    r.allocsPerEvent =
        static_cast<double>(after.calls - before.calls) /
        static_cast<double>(processed ? processed : 1);
    r.bytesPerEvent = static_cast<double>(after.bytes - before.bytes) /
                      static_cast<double>(processed ? processed : 1);
    return r;
}

/** withTimeout where the value always beats the timer. */
sim::Task<void>
timeoutLoop(sim::Simulator &sim, std::uint64_t iters, std::uint64_t *won)
{
    for (std::uint64_t i = 0; i < iters; ++i) {
        sim::Promise<int> p(sim);
        sim.schedule(kMicrosecond, [p]() mutable { p.set(7); });
        const auto v =
            co_await p.future().withTimeout(5 * kMicrosecond);
        *won += v.has_value();
    }
}

ScenarioResult
timeoutRace(std::uint64_t target_events)
{
    // ~4 events per iteration (set, value resume, dead timer, next
    // timer).
    const std::uint64_t iters = target_events / 4 + 1;

    sim::Simulator sim;
    std::uint64_t won = 0;
    sim::spawn(timeoutLoop(sim, 1000, &won));
    sim.run();

    sim::spawn(timeoutLoop(sim, iters, &won));
    const AllocSnapshot before = AllocSnapshot::take();
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t processed = sim.run();
    const double secs = wallSeconds(start);
    const AllocSnapshot after = AllocSnapshot::take();

    if (won != iters + 1000)
        PANIC("timeout_race lost a value");

    ScenarioResult r;
    r.name = "timeout_race";
    r.events = processed;
    r.seconds = secs;
    r.allocsPerEvent =
        static_cast<double>(after.calls - before.calls) /
        static_cast<double>(processed ? processed : 1);
    r.bytesPerEvent = static_cast<double>(after.bytes - before.bytes) /
                      static_cast<double>(processed ? processed : 1);
    return r;
}

/**
 * timer_ring with the metrics plane sampling on top: ticks bump two
 * counters and record one histogram sample; a self-rescheduling
 * sampler snapshots the StatSet every simulated 100us. Steady state
 * must stay at zero allocations per event — the sampler reuses
 * pre-sized rings, pointer-keyed snapshot maps, and a scratch
 * histogram for the window delta.
 */
struct StatTick
{
    sim::Simulator *sim;
    common::StatSet *stats;
    std::uint64_t *fired;
    Duration period;

    void
    operator()() const
    {
        ++*fired;
        stats->counter("ops").inc();
        if (*fired % 16 == 0)
            stats->counter("slow").inc();
        stats->histogram("lat").record(
            static_cast<std::int64_t>(*fired % 4096));
        sim->schedule(period, StatTick{*this});
    }
};

struct SampleTick
{
    sim::Simulator *sim;
    common::MetricsRegistry *reg;

    void
    operator()() const
    {
        const Duration interval = reg->interval();
        const common::Time t = sim->now();
        reg->sample(t - interval, t);
        sim->schedule(interval, SampleTick{*this});
    }
};

ScenarioResult
metricsRing(std::uint64_t target_events)
{
    constexpr Duration kInterval = 100 * kMicrosecond;
    sim::Simulator sim;
    common::StatSet stats;
    common::MetricsRegistry reg(kInterval);
    reg.addStatSet("ring.", 0, stats);
    std::uint64_t fired = 0;
    reg.addGauge("ring.fired", 0, [&fired] {
        return static_cast<double>(fired);
    });

    constexpr std::uint32_t kTimers = 64;
    for (std::uint32_t i = 0; i < kTimers; ++i) {
        const Duration period = (1 + i % 7) * kMicrosecond;
        sim.schedule(period, StatTick{&sim, &stats, &fired, period});
    }
    sim.schedule(kInterval, SampleTick{&sim, &reg});
    // Warm up past several sampling windows so every series exists and
    // its ring storage is reserved before the measured window.
    sim.runUntil(5 * kInterval);

    const Duration horizon =
        static_cast<Duration>(target_events / 24 + 1) * kMicrosecond;

    const AllocSnapshot before = AllocSnapshot::take();
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t processed = sim.runUntil(sim.now() + horizon);
    const double secs = wallSeconds(start);
    const AllocSnapshot after = AllocSnapshot::take();

    if (reg.samples() < 5)
        PANIC("metrics_ring sampler never ran");

    ScenarioResult r;
    r.name = "metrics_ring";
    r.events = processed;
    r.seconds = secs;
    r.allocsPerEvent =
        static_cast<double>(after.calls - before.calls) /
        static_cast<double>(processed ? processed : 1);
    r.bytesPerEvent = static_cast<double>(after.bytes - before.bytes) /
                      static_cast<double>(processed ? processed : 1);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const std::uint64_t target = static_cast<std::uint64_t>(
        args.getInt("events", args.has("full") ? 20'000'000 : 2'000'000));

    bench::Report report("sim_core");
    report.params().set("events", target).set("full", args.has("full"));

    bench::printHeader(
        "sim_core: DES kernel throughput and per-event heap traffic\n"
        "(allocs/event from an interposed operator new counter)");
    std::printf("%20s | %12s | %10s | %12s | %12s\n", "scenario",
                "events", "wall s", "events/sec", "allocs/event");
    std::printf("---------------------+--------------+------------+"
                "--------------+-------------\n");

    std::vector<ScenarioResult> results;
    results.push_back(timerRing(target));
    results.push_back(sameInstantBurst(target));
    results.push_back(futurePingpong(target));
    results.push_back(timeoutRace(target));
    results.push_back(metricsRing(target));

    for (const ScenarioResult &r : results) {
        const double eps =
            static_cast<double>(r.events) / (r.seconds > 0 ? r.seconds : 1);
        std::printf("%20s | %12llu | %10.3f | %12.0f | %12.3f\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.events), r.seconds,
                    eps, r.allocsPerEvent);
        report.addRow()
            .set("scenario", r.name)
            .set("events", r.events)
            .set("seconds", r.seconds)
            .set("events_per_sec", eps)
            .set("allocs_per_event", r.allocsPerEvent)
            .set("bytes_per_event", r.bytesPerEvent);
    }

    report.write(args);
    return 0;
}
