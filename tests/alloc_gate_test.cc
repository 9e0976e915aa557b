/**
 * @file
 * Allocation gate for the assembled cluster: after warm-up, a simulated
 * transaction makes no heap allocation. Two small cells stand in for
 * the end-to-end benchmark's workloads (e2e_bench/):
 *
 *  - fig8-shaped: 3x3 DRAM, PTP-SW clocks, local validation, the
 *    read-heavy Retwis mix. Replication quorums, waiter queues and
 *    one-way messages must all come from pools: 0 allocations per
 *    attempt. The warm-up is long because what a window can still
 *    catch is high-water growth, not churn: a new peak of concurrent
 *    transactions grows a pool or the transaction table, a rare event
 *    binds its stat handle. Those die out as the run goes on (at this
 *    seed none is left after 5 s); a per-round allocation does not.
 *  - fig6-shaped: 1x1 MFTL, 20k keys, 16 clients, alpha 0.8, warmed up
 *    until the collector has erased blocks, so the window runs in the
 *    erase/program steady state. Pages are built inline and programmed
 *    into the device's flat record array, so what may remain is a
 *    pool's high-water mark still rising under a burst of GC reads: at
 *    most 0.05 allocations per attempt.
 *
 * A device case holds the flash model alone to that: once every page
 * has been programmed, read and erased, another such pass allocates
 * nothing. A kernel case does the same for the simulator's
 * primitives: semaphore handoffs, quorum rounds, nested tasks and
 * futures raced by timeouts. A histogram case holds one histogram to
 * the metrics plane's per-window cycle (record, diff against a
 * snapshot, re-snapshot): once it has seen its octaves, the cycle
 * allocates nothing.
 *
 * The binary links bench/alloc_counter.cc, which replaces the global
 * operator new/delete with counters, and counts the measured window's
 * run loop as the difference of snapshots taken around each step. It
 * runs alone (its own executable), and is left out of sanitizer
 * builds, whose runtimes replace the allocator themselves.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>

#include "../bench/alloc_counter.hh"
#include "common/histogram.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "flash/ssd.hh"
#include "sim/future.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "workload/cluster.hh"
#include "workload/retwis.hh"

namespace {

using bench::AllocSnapshot;
using common::kMillisecond;
using common::kMicrosecond;
using common::kSecond;
using common::Time;
using workload::BackendKind;
using workload::ClockKind;
using workload::Cluster;
using workload::ClusterConfig;
using workload::RetwisConfig;
using workload::RetwisWorkload;

/** One assembled system driven by a Retwis fleet. */
struct Cell
{
    Cell(const ClusterConfig &cfg, const RetwisConfig &retwis)
        : cluster(cfg)
    {
        cluster.populate();
        cluster.start();
        fleet = std::make_unique<RetwisWorkload>(cluster, retwis);
        fleet->start();
    }

    std::uint64_t
    attempts() const
    {
        return fleet->totalCommits() + fleet->totalAborts();
    }

    std::uint64_t
    erases() const
    {
        return cluster.deviceStats().counterValue("ssd.erases");
    }

    void runFor(common::Duration d) { cluster.runUntil(cluster.now() + d); }

    Cluster cluster;
    std::unique_ptr<RetwisWorkload> fleet;
};

struct Window
{
    std::uint64_t attempts = 0;
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;

    double
    perAttempt() const
    {
        return static_cast<double>(allocs) / static_cast<double>(attempts);
    }
};

/** Count allocations over @p window of simulated time, in 10 ms steps
 *  so the harness's own work between steps stays uncounted. */
Window
measure(const char *name, Cell &cell, common::Duration window)
{
    Window w;
    const std::uint64_t a0 = cell.attempts();
    const Time end = cell.cluster.now() + window;
    while (cell.cluster.now() < end) {
        const AllocSnapshot before = AllocSnapshot::take();
        cell.runFor(10 * kMillisecond);
        const AllocSnapshot after = AllocSnapshot::take();
        w.allocs += after.calls - before.calls;
        w.bytes += after.bytes - before.bytes;
    }
    w.attempts = cell.attempts() - a0;
    std::printf("%s: %llu attempts, %llu allocations (%llu B), "
                "%.4f allocations per attempt\n",
                name, static_cast<unsigned long long>(w.attempts),
                static_cast<unsigned long long>(w.allocs),
                static_cast<unsigned long long>(w.bytes), w.perAttempt());
    return w;
}

TEST(AllocGate, Fig8ShapedCellAllocatesNothingPerAttempt)
{
    ClusterConfig cfg;
    cfg.numShards = 3;
    cfg.replicasPerShard = 3;
    cfg.numClients = 8;
    cfg.backend = BackendKind::Dram;
    cfg.clocks = ClockKind::PtpSw;
    cfg.localValidation = true;
    cfg.numKeys = 3'000;
    cfg.seed = 7;
    RetwisConfig retwis;
    retwis.alpha = 0.6;
    retwis.numKeys = cfg.numKeys;
    retwis.readHeavy = true;
    retwis.seed = cfg.seed + 100;

    Cell cell(cfg, retwis);
    cell.runFor(5 * kSecond);
    const Window w = measure("fig8-shaped", cell, 500 * kMillisecond);
    ASSERT_GT(w.attempts, 1'000u);
    EXPECT_EQ(w.allocs, 0u);
}

TEST(AllocGate, Fig6ShapedCellReusesErasedPageBuffers)
{
    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.numClients = 16;
    cfg.backend = BackendKind::Mftl;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 20'000;
    cfg.seed = 7;
    // fig6's same-machine network.
    cfg.net.oneWayMean = 5 * kMicrosecond;
    cfg.net.oneWaySigma = 1 * kMicrosecond;
    cfg.net.minLatency = 1 * kMicrosecond;
    RetwisConfig retwis;
    retwis.alpha = 0.8;
    retwis.numKeys = cfg.numKeys;
    retwis.seed = cfg.seed + 100;

    Cell cell(cfg, retwis);
    // Warm up until the collector has reclaimed blocks, then as long
    // again, so the window runs in the erase/program steady state.
    const Time start = cell.cluster.now();
    while (cell.erases() == 0 && cell.cluster.now() - start < 10 * kSecond)
        cell.runFor(100 * kMillisecond);
    ASSERT_GT(cell.erases(), 0u) << "no block erased during warm-up";
    cell.runFor(cell.cluster.now() - start);
    const std::uint64_t erases0 = cell.erases();

    const Window w = measure("fig6-shaped", cell, kSecond);
    const std::uint64_t erases = cell.erases() - erases0;
    std::printf("fig6-shaped: %llu blocks erased in the window\n",
                static_cast<unsigned long long>(erases));
    ASSERT_GT(w.attempts, 1'000u);
    EXPECT_GT(erases, 0u);
    EXPECT_LE(w.perAttempt(), 0.05);
}

/**
 * A tiny device driven through whole passes: program every page full,
 * read each one, erase every block. The first pass warms the
 * simulator's event queue and frame pool; the second must allocate
 * nothing, so neither a program, a read nor an erase reaches the heap.
 */
TEST(AllocGate, DeviceProgramReadErasePassAllocatesNothing)
{
    flash::Geometry g;
    g.numBlocks = 4;
    g.pagesPerBlock = 4;
    g.numChannels = 2;
    g.queueDepth = 4;
    sim::Simulator sim;
    flash::SsdDevice ssd(sim, g);
    std::uint64_t records_read = 0;
    auto pass = [&]() -> sim::Task<void> {
        for (std::uint32_t b = 0; b < g.numBlocks; ++b) {
            for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p) {
                flash::PageData page;
                for (std::uint32_t i = 0; i < flash::kRecordsPerPage; ++i) {
                    flash::Record &r = page.records.emplace_back();
                    r.key = (b * g.pagesPerBlock + p) * 8 + i;
                    r.value = "v"; // inline: only the device may allocate
                }
                co_await ssd.programPage({b, p}, std::move(page));
            }
        }
        for (std::uint32_t b = 0; b < g.numBlocks; ++b)
            for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p)
                records_read += (co_await ssd.readPage({b, p})).size();
        for (std::uint32_t b = 0; b < g.numBlocks; ++b)
            co_await ssd.eraseBlock(b);
    };
    // Spawned from an event, so the pass's frame comes from the
    // simulator's frame pool like every frame beneath it.
    auto run_pass = [&] {
        sim.schedule(0, [&] { sim::spawn(pass()); });
        sim.run();
    };
    run_pass();
    const AllocSnapshot before = AllocSnapshot::take();
    run_pass();
    const AllocSnapshot after = AllocSnapshot::take();
    EXPECT_EQ(after.calls - before.calls, 0u);
    EXPECT_EQ(records_read, 2u * g.numBlocks * g.pagesPerBlock * 8);
    EXPECT_EQ(ssd.stats().counterValue("ssd.erases"), 2u * g.numBlocks);
}

/**
 * One loop over every kernel primitive a transaction uses: a one-unit
 * semaphore handed between four waiters in turn, a SharedQuorum round
 * whose two late acks outlive its waiter, a Task<void> awaiting a
 * Task<int> awaiting another, and futures raced by withTimeout, once
 * won by the value and once by the timer (with the value landing
 * after). The first pass grows the event queue and the simulator's
 * pool to the loop's high-water mark; the second allocates nothing.
 */
TEST(AllocGate, KernelPrimitivesAllocateNothingAfterWarmUp)
{
    sim::Simulator sim;
    sim::Semaphore mutex(sim, 1);
    std::uint64_t handoffs = 0;
    std::uint64_t acks = 0;
    std::uint64_t sum = 0;
    std::uint64_t values = 0;
    std::uint64_t timeouts = 0;
    auto holder = [&]() -> sim::Task<void> {
        co_await mutex.acquire();
        sim::Semaphore::Held held(mutex);
        ++handoffs;
        co_await sim::sleepFor(sim, kMicrosecond);
    };
    auto ack = [&](sim::SharedQuorum q, common::Duration d)
        -> sim::Task<void> {
        co_await sim::sleepFor(sim, d);
        q->arrive();
        ++acks;
    };
    auto leaf = [&](int x) -> sim::Task<int> {
        co_await sim::sleepFor(sim, 1);
        co_return x + 1;
    };
    auto middle = [&](int x) -> sim::Task<int> {
        co_return co_await leaf(x) * 2;
    };
    auto nested = [&]() -> sim::Task<void> {
        sum += static_cast<std::uint64_t>(co_await middle(1));
    };
    auto pass = [&]() -> sim::Task<void> {
        for (int round = 0; round < 1'000; ++round) {
            for (int w = 0; w < 3; ++w)
                sim::spawn(holder());
            co_await mutex.acquire(); // the fourth waiter, behind three
            mutex.release();

            sim::SharedQuorum q(sim, 1);
            for (common::Duration d : {1, 2, 3})
                sim::spawn(ack(q, d));
            co_await q->wait();

            co_await nested();

            sim::Promise<int> soon(sim);
            sim.schedule(1, [soon]() mutable { soon.set(7); });
            if ((co_await soon.future().withTimeout(2)).has_value())
                ++values;
            sim::Promise<int> late(sim);
            if (!(co_await late.future().withTimeout(1)).has_value())
                ++timeouts;
            late.set(8);
        }
    };
    auto run_pass = [&] {
        sim.schedule(0, [&] { sim::spawn(pass()); });
        sim.run();
    };
    run_pass();
    const AllocSnapshot before = AllocSnapshot::take();
    run_pass();
    const AllocSnapshot after = AllocSnapshot::take();
    EXPECT_EQ(after.calls - before.calls, 0u);
    EXPECT_EQ(handoffs, 2u * 3'000);
    EXPECT_EQ(acks, 2u * 3'000);
    EXPECT_EQ(sum, 2u * 1'000 * 4);
    EXPECT_EQ(values, 2u * 1'000);
    EXPECT_EQ(timeouts, 2u * 1'000);
    EXPECT_EQ(mutex.available(), 1);
}

/**
 * The metrics plane's per-window work on one histogram: records, a
 * delta against the last snapshot, a fresh snapshot. Once all three
 * hold every octave the samples reach (12 here, so 4 live in overflow
 * blocks), none of it allocates.
 */
TEST(HistogramSteadyState, RecordCopyAndDeltaAllocateNothing)
{
    constexpr int kOctaves = 12;
    common::Histogram h, prev, delta;
    h.record(0);
    for (int shift = 0; shift < kOctaves - 1; ++shift)
        h.record(std::int64_t{64} << shift);
    delta.assignDelta(h, prev);
    prev = h;

    common::Rng r(3);
    const AllocSnapshot before = AllocSnapshot::take();
    for (int i = 1; i <= 1'000'000; ++i) {
        const auto shift = static_cast<int>(r.nextBounded(kOctaves - 1));
        h.record((std::int64_t{64} + r.nextRange(0, 63)) << shift);
        if (i % 10'000 == 0) {
            delta.assignDelta(h, prev);
            prev = h;
        }
    }
    EXPECT_EQ(AllocSnapshot::take().calls - before.calls, 0u);
    EXPECT_EQ(h.count(), 1'000'000u + kOctaves);
    EXPECT_EQ(delta.count(), 10'000u);
}

} // namespace
