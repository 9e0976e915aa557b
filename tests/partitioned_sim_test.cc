/**
 * @file
 * PartitionedScheduler contract tests: conservative time windows
 * deliver cross-partition events in the deterministic
 * (when, src partition, per-src seq) order regardless of worker-thread
 * count; the Fabric routes RPCs between per-partition Networks with
 * legacy-equivalent loss semantics; and — the property the whole
 * design rests on — a fig6-style Cluster scenario produces
 * byte-identical results (bench report AND merged trace export) for
 * every --sim-threads value >= 1.
 *
 * This suite doubles as the TSan gate for the partitioned runtime
 * (ctest -R tsan_partitioned_sim in a -DMILANA_SANITIZE=thread
 * build): the multi-thread cases exercise mailboxes, the window
 * barrier, and per-partition trace logs on real worker threads.
 */

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/bench_util.hh"
#include "common/chaos.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "net/network.hh"
#include "sim/partition.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "workload/cluster.hh"
#include "workload/retwis.hh"

namespace {

using common::kMicrosecond;
using common::kMillisecond;
using common::kSecond;
using common::Time;
using workload::BackendKind;
using workload::ClockKind;
using workload::Cluster;
using workload::ClusterConfig;
using workload::RetwisConfig;
using workload::RetwisWorkload;

/** (delivery time, label) observations, one vector per partition. */
using Log = std::vector<std::pair<Time, std::string>>;

/**
 * Three partitions of self-rescheduling tickers that each post a
 * message one lookahead ahead to the next partition around the ring.
 * Returns every partition's observation log.
 */
std::vector<Log>
runRing(std::uint32_t threads, Time horizon)
{
    constexpr std::uint32_t kParts = 3;
    constexpr common::Duration kLookahead = 1 * kMicrosecond;
    sim::PartitionedScheduler sched(kParts, threads, kLookahead);
    std::vector<Log> logs(kParts);

    struct Tick
    {
        sim::PartitionedScheduler *sched;
        std::vector<Log> *logs;
        std::uint32_t part;
        common::Duration period;

        void
        operator()() const
        {
            sim::Simulator &sim = sched->partition(part);
            (*logs)[part].emplace_back(sim.now(), "tick");
            const std::uint32_t dst = (part + 1) % 3;
            std::vector<Log> *ls = logs;
            const std::uint32_t src = part;
            sched->post(part, dst, sim.now() + sched->lookahead(),
                        common::TraceContext{},
                        [ls, dst, src, s = sched] {
                            (*ls)[dst].emplace_back(
                                s->partition(dst).now(),
                                "from" + std::to_string(src));
                        });
            sim.schedule(period, Tick{*this});
        }
    };

    for (std::uint32_t p = 0; p < kParts; ++p) {
        const common::Duration period = (p + 1) * kMicrosecond;
        sched.partition(p).schedule(period,
                                    Tick{&sched, &logs, p, period});
    }
    sched.runUntil(horizon);
    EXPECT_EQ(sched.now(), horizon);
    return logs;
}

TEST(PartitionedScheduler, RingIdenticalAcrossThreadCounts)
{
    const auto one = runRing(1, 200 * kMicrosecond);
    std::uint64_t observed = 0;
    for (const Log &log : one)
        observed += log.size();
    ASSERT_GT(observed, 400u); // the ring actually ran
    EXPECT_EQ(one, runRing(2, 200 * kMicrosecond));
    EXPECT_EQ(one, runRing(3, 200 * kMicrosecond));
    EXPECT_EQ(one, runRing(8, 200 * kMicrosecond)); // clamped to 3
}

TEST(PartitionedScheduler, PostAtExactlyLookaheadDelivers)
{
    sim::PartitionedScheduler sched(2, 2, 1 * kMicrosecond);
    std::vector<Time> delivered;
    // Sender ticks at t=1us and posts for t=2us (exactly lookahead
    // ahead — the tightest legal cross-partition delay).
    sched.partition(0).schedule(1 * kMicrosecond, [&sched, &delivered] {
        sched.post(0, 1,
                   sched.partition(0).now() + sched.lookahead(),
                   common::TraceContext{}, [&sched, &delivered] {
                       delivered.push_back(sched.partition(1).now());
                   });
    });
    sched.runUntil(10 * kMicrosecond);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0], 2 * kMicrosecond);
}

TEST(PartitionedScheduler, MailboxMergeOrdersBySrcThenSeq)
{
    // Both partitions 0 and 2 post to partition 1 for the SAME instant;
    // the merge must order them (src 0 before src 2), and multiple
    // posts from one source must keep their post order.
    sim::PartitionedScheduler sched(3, 1, 1 * kMicrosecond);
    std::vector<std::string> order;
    const Time when = 2 * kMicrosecond;
    auto arm = [&](std::uint32_t src, const std::string &tag) {
        sched.partition(src).schedule(
            1 * kMicrosecond, [&sched, &order, src, when, tag] {
                sched.post(src, 1, when, common::TraceContext{},
                           [&order, tag] { order.push_back(tag); });
            });
    };
    arm(2, "c");
    arm(0, "a1");
    // Second post from partition 0, armed later at the same instant:
    // same (when, src), higher per-src seq.
    sched.partition(0).schedule(
        1 * kMicrosecond, [&sched, &order, when] {
            sched.post(0, 1, when, common::TraceContext{},
                       [&order] { order.push_back("a2"); });
        });
    sched.runUntil(5 * kMicrosecond);
    EXPECT_EQ(order, (std::vector<std::string>{"a1", "a2", "c"}));
}

// ---------------------------------------------- lookahead closure

TEST(PartitionedScheduler, ClosureHubTopology)
{
    // Hub-and-spoke: partition 0 is the hub, 1..3 only talk to it
    // (the fig6 layout: storage on 0, clients on the spokes).
    constexpr common::Duration kHubLa = 2 * kMicrosecond;
    sim::PartitionedScheduler sched(4, 1, 1 * kMicrosecond);
    std::vector<std::vector<common::Duration>> m(
        4, std::vector<common::Duration>(
               4, sim::PartitionedScheduler::kNoEdge));
    for (std::uint32_t c = 1; c < 4; ++c) {
        m[0][c] = kHubLa;
        m[c][0] = kHubLa;
    }
    sched.setEdgeLookahead(std::move(m));

    EXPECT_EQ(sched.edgeLookahead(0, 1), kHubLa);
    // Spokes have no direct link...
    EXPECT_EQ(sched.edgeLookahead(1, 2),
              sim::PartitionedScheduler::kNoEdge);
    // ...so spoke-to-spoke influence goes through the hub: 2us + 2us.
    EXPECT_EQ(sched.effectiveLookahead(1, 2), 2 * kHubLa);
    // Shortest cycle back into any partition is out-and-back: a spoke
    // can only constrain its own future via the hub, 4us away — twice
    // the slack a global all-pairs minimum would have granted.
    EXPECT_EQ(sched.effectiveLookahead(0, 0), 2 * kHubLa);
    EXPECT_EQ(sched.effectiveLookahead(2, 2), 2 * kHubLa);
}

TEST(PartitionedScheduler, ClosureRingTopology)
{
    // Directed ring 0 -> 1 -> 2 -> 3 -> 0, one hop per microsecond.
    constexpr common::Duration kHop = 1 * kMicrosecond;
    sim::PartitionedScheduler sched(4, 1, kHop);
    std::vector<std::vector<common::Duration>> m(
        4, std::vector<common::Duration>(
               4, sim::PartitionedScheduler::kNoEdge));
    for (std::uint32_t p = 0; p < 4; ++p)
        m[p][(p + 1) % 4] = kHop;
    sched.setEdgeLookahead(std::move(m));

    // Forward hops accumulate; the reverse direction must go the long
    // way around.
    EXPECT_EQ(sched.effectiveLookahead(0, 1), kHop);
    EXPECT_EQ(sched.effectiveLookahead(0, 3), 3 * kHop);
    EXPECT_EQ(sched.effectiveLookahead(3, 0), kHop);
    EXPECT_EQ(sched.edgeLookahead(0, 2),
              sim::PartitionedScheduler::kNoEdge);
    EXPECT_EQ(sched.effectiveLookahead(0, 2), 2 * kHop);
    // A partition can only reach itself around the whole ring.
    for (std::uint32_t p = 0; p < 4; ++p)
        EXPECT_EQ(sched.effectiveLookahead(p, p), 4 * kHop);
}

// ---------------------------------------------- idle-gap skipping

TEST(PartitionedScheduler, IdleGapSkipHonorsExactBound)
{
    // Two partitions linked both ways at 1us. Partition 0's only
    // event sits at 10us — a 10us idle gap the adaptive engine must
    // jump — and it posts to partition 1 at exactly the edge
    // lookahead. Partition 1 already holds a local event at that same
    // instant; the local event was scheduled first, so it must run
    // first (the same-instant FIFO the mailbox merge guarantees).
    constexpr common::Duration kLa = 1 * kMicrosecond;
    sim::PartitionedScheduler sched(2, 1, kLa);
    std::vector<std::vector<common::Duration>> m(
        2, std::vector<common::Duration>(
               2, sim::PartitionedScheduler::kNoEdge));
    m[0][1] = m[1][0] = kLa;
    sched.setEdgeLookahead(std::move(m));

    std::vector<std::pair<Time, std::string>> got;
    sched.partition(1).scheduleAt(11 * kMicrosecond, [&] {
        got.emplace_back(sched.partition(1).now(), "local");
    });
    sched.partition(0).scheduleAt(10 * kMicrosecond, [&] {
        sched.post(0, 1, sched.partition(0).now() + kLa,
                   common::TraceContext{}, [&] {
                       got.emplace_back(sched.partition(1).now(),
                                        "posted");
                   });
    });
    sched.runUntil(20 * kMicrosecond);

    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], (std::pair<Time, std::string>{
                          11 * kMicrosecond, "local"}));
    EXPECT_EQ(got[1], (std::pair<Time, std::string>{
                          11 * kMicrosecond, "posted"}));
    // The 0..10us stretch held no events anywhere: the engine must
    // have jumped it rather than crossing one barrier per lookahead.
    EXPECT_GE(sched.windowsSkipped(), 5u);
    EXPECT_LT(sched.windowsExecuted(), 10u);
}

TEST(PartitionedScheduler, PostIntoSkippedGapStillDelivers)
{
    // Partition 1's next local event is far away (100us). Partition 0
    // ticks at 5us and posts for 6us — inside what, from partition
    // 1's local queue alone, looks like a dead gap. The engine may
    // never grant partition 1 a window past 6us before observing the
    // post: delivery must happen at 6us, before the 100us local.
    constexpr common::Duration kLa = 1 * kMicrosecond;
    sim::PartitionedScheduler sched(2, 1, kLa);
    std::vector<std::vector<common::Duration>> m(
        2, std::vector<common::Duration>(
               2, sim::PartitionedScheduler::kNoEdge));
    m[0][1] = m[1][0] = kLa;
    sched.setEdgeLookahead(std::move(m));

    std::vector<std::pair<Time, std::string>> got;
    sched.partition(1).scheduleAt(100 * kMicrosecond, [&] {
        got.emplace_back(sched.partition(1).now(), "far");
    });
    sched.partition(0).scheduleAt(5 * kMicrosecond, [&] {
        sched.post(0, 1, sched.partition(0).now() + kLa,
                   common::TraceContext{}, [&] {
                       got.emplace_back(sched.partition(1).now(),
                                        "posted");
                   });
    });
    sched.runUntil(200 * kMicrosecond);

    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], (std::pair<Time, std::string>{
                          6 * kMicrosecond, "posted"}));
    EXPECT_EQ(got[1], (std::pair<Time, std::string>{
                          100 * kMicrosecond, "far"}));
}

/** Two-partition Fabric: server node 7 on partition 0, client node
 *  1000 on partition 1. */
struct RpcRig
{
    sim::PartitionedScheduler sched;
    net::NetConfig cfg;
    net::Fabric fabric;
    net::Network net0;
    net::Network net1;

    explicit RpcRig(std::uint32_t threads)
        : sched(2, threads, net::NetConfig{}.minLatency),
          fabric(sched, cfg),
          net0(sched.partition(0), cfg, common::Rng(1), fabric, 0),
          net1(sched.partition(1), cfg, common::Rng(2), fabric, 1)
    {
        fabric.registerNetwork(0, &net0);
        fabric.registerNetwork(1, &net1);
        fabric.setPartition(7, 0);
        fabric.setPartition(1000, 1);
    }
};

sim::Task<int>
echoHandler(sim::Simulator &sim, int value)
{
    // A little server-side work so the handler demonstrably runs on
    // the destination partition's clock.
    co_await sim::sleepFor(sim, 10 * kMicrosecond);
    co_return value;
}

TEST(Fabric, CrossPartitionRpcRoundTrip)
{
    for (std::uint32_t threads : {1u, 2u}) {
        RpcRig rig(threads);
        std::optional<int> got;
        Time done = 0;
        sim::spawn([](RpcRig *rig, std::optional<int> *got,
                      Time *done) -> sim::Task<void> {
            auto resp = co_await rig->net1.callTyped<int>(
                1000, 7,
                echoHandler(rig->sched.partition(0), 42));
            *got = resp.value_or(-1);
            *done = rig->sched.partition(1).now();
        }(&rig, &got, &done));
        rig.sched.runUntil(kSecond);
        ASSERT_TRUE(got.has_value()) << "threads=" << threads;
        EXPECT_EQ(*got, 42);
        // Two legs at >= minLatency each plus 10us of handler time.
        EXPECT_GE(done, 2 * rig.cfg.minLatency + 10 * kMicrosecond);
    }
}

TEST(Fabric, RpcToDownNodeTimesOutWithNullopt)
{
    RpcRig rig(2);
    rig.fabric.setNodeDown(7, true);
    bool ran = false;
    std::optional<int> got = 123;
    Time done = 0;
    sim::spawn([](RpcRig *rig, bool *ran, std::optional<int> *got,
                  Time *done) -> sim::Task<void> {
        *got = co_await rig->net1.callTyped<int>(
            1000, 7, echoHandler(rig->sched.partition(0), 42));
        *ran = true;
        *done = rig->sched.partition(1).now();
    }(&rig, &ran, &got, &done));
    rig.sched.runUntil(kSecond);
    ASSERT_TRUE(ran);
    EXPECT_FALSE(got.has_value());
    // The caller observes the failure only after the RPC timeout, as
    // in the classic single-simulator path.
    EXPECT_GE(done, rig.cfg.rpcTimeout);
}

/** One fig6-style cell under a given simThreads; returns the bench
 *  report plus the merged trace JSON export. */
std::pair<std::string, std::string>
runPartitionedCell(std::uint32_t sim_threads)
{
    common::TraceLog trace(1 << 15);

    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.numClients = 8;
    cfg.backend = BackendKind::Mftl;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 500;
    cfg.seed = 1;
    cfg.simThreads = sim_threads;
    cfg.trace = &trace;

    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();

    RetwisConfig retwis;
    retwis.alpha = 0.8;
    retwis.numKeys = cfg.numKeys;
    retwis.seed = cfg.seed + 100;
    RetwisWorkload fleet(cluster, retwis);
    fleet.start();

    cluster.runUntil(cluster.now() + kSecond / 4);
    fleet.resetMeasurement();
    cluster.resetStats();
    cluster.runFor(kSecond / 2);
    cluster.finishTrace();

    bench::Report report("partitioned_sim_test");
    report.params().set("keys", cfg.numKeys).set("seed", cfg.seed);
    report.addRow()
        .set("commits", fleet.totalCommits())
        .set("aborts", fleet.totalAborts())
        .set("abort_pct", fleet.abortRate() * 100.0);
    report.addStats("client", cluster.clientStats(), "client.");
    report.addStats("server", cluster.serverStats(), "server.");
    std::ostringstream ros;
    report.writeTo(ros);

    std::ostringstream tos;
    trace.writeJson(tos);
    EXPECT_GT(trace.size(), 0u);
    return {ros.str(), tos.str()};
}

TEST(PartitionedCluster, ReportAndTraceBytesIdenticalAcrossSimThreads)
{
    const auto one = runPartitionedCell(1);
    EXPECT_FALSE(one.first.empty());
    const auto two = runPartitionedCell(2);
    EXPECT_EQ(one.first, two.first);
    EXPECT_EQ(one.second, two.second);
    const auto eight = runPartitionedCell(8);
    EXPECT_EQ(one.first, eight.first);
    EXPECT_EQ(one.second, eight.second);
}

/**
 * Same cell with a chaos schedule on top. Fault mutations may only
 * land at quiescent points, so the run façade clamps every window at
 * ChaosEngine::nextActionAt(); the test pins that clamp down: report,
 * trace AND the scheduler's own window/skip/barrier counters must be
 * byte-identical for every thread count even while faults fire inside
 * otherwise-skippable idle gaps.
 */
std::pair<std::string, std::string>
runChaosCell(std::uint32_t sim_threads)
{
    common::TraceLog trace(1 << 15);
    common::ChaosEngine chaos(42);
    std::string err;
    EXPECT_TRUE(chaos.parse(
        "at 50ms delay all factor=8 for 100ms\n"
        "at 80ms partition client:1 servers for 60ms",
        &err))
        << err;

    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.numClients = 6;
    cfg.backend = BackendKind::Mftl;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 400;
    cfg.seed = 2;
    cfg.simThreads = sim_threads;
    cfg.trace = &trace;
    cfg.chaos = &chaos;

    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();

    RetwisConfig retwis;
    retwis.alpha = 0.8;
    retwis.numKeys = cfg.numKeys;
    retwis.seed = cfg.seed + 100;
    RetwisWorkload fleet(cluster, retwis);
    fleet.start();

    cluster.runUntil(cluster.now() + 100 * kMillisecond);
    fleet.resetMeasurement();
    cluster.resetStats();
    chaos.arm(cluster.now());
    cluster.runFor(250 * kMillisecond);
    cluster.finishTrace();
    EXPECT_GT(chaos.injections(), 0u);

    const Cluster::SchedStats sched = cluster.schedStats();
    EXPECT_GT(sched.windows, 0u);
    EXPECT_GT(sched.skipped, 0u);

    bench::Report report("partitioned_chaos_test");
    report.addRow()
        .set("commits", fleet.totalCommits())
        .set("aborts", fleet.totalAborts())
        .set("sched_windows", sched.windows)
        .set("sched_windows_skipped", sched.skipped)
        .set("sched_barriers", sched.barriers)
        .set("sched_events", sched.events);
    report.addStats("client", cluster.clientStats(), "client.");
    report.addStats("server", cluster.serverStats(), "server.");
    std::ostringstream ros;
    report.writeTo(ros);

    std::ostringstream tos;
    trace.writeJson(tos);
    EXPECT_GT(trace.size(), 0u);
    return {ros.str(), tos.str()};
}

TEST(PartitionedCluster, ChaosClampByteIdenticalAcrossSimThreads)
{
    const auto one = runChaosCell(1);
    EXPECT_FALSE(one.first.empty());
    const auto two = runChaosCell(2);
    EXPECT_EQ(one.first, two.first);
    EXPECT_EQ(one.second, two.second);
    const auto eight = runChaosCell(8);
    EXPECT_EQ(one.first, eight.first);
    EXPECT_EQ(one.second, eight.second);
}

TEST(PartitionedCluster, WorkloadActuallyCommits)
{
    // Guard against the identity test passing on three identical
    // empty runs.
    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.numClients = 4;
    cfg.backend = BackendKind::Mftl;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 500;
    cfg.seed = 3;
    cfg.simThreads = 2;

    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    RetwisConfig retwis;
    retwis.numKeys = cfg.numKeys;
    RetwisWorkload fleet(cluster, retwis);
    fleet.start();
    cluster.runFor(kSecond / 2);
    EXPECT_GT(fleet.totalCommits(), 100u);
}

TEST(PartitionedCluster, FramePoolsStayBoundedAcrossPartitions)
{
    // A server handler's coroutine frame is made on the client's
    // partition and freed on the storage partition. It must not land
    // in the storage partition's pool, which never allocates those
    // frames: that pool would grow by a block per RPC.
    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.numClients = 4;
    cfg.backend = BackendKind::Mftl;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 500;
    cfg.seed = 3;
    cfg.simThreads = 2;

    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    RetwisConfig retwis;
    retwis.numKeys = cfg.numKeys;
    RetwisWorkload fleet(cluster, retwis);
    fleet.start();

    std::vector<sim::Simulator *> sims{&cluster.network().simulator()};
    for (std::uint32_t c = 0; c < cfg.numClients; ++c) {
        sim::Simulator *s = &cluster.clientSim(c);
        if (std::find(sims.begin(), sims.end(), s) == sims.end())
            sims.push_back(s);
    }
    ASSERT_GT(sims.size(), 1u);
    auto freeBlocks = [&] {
        std::size_t n = 0;
        for (sim::Simulator *s : sims)
            n += s->pool().freeBlocks();
        return n;
    };

    cluster.runUntil(cluster.now() + kSecond / 4);
    const std::uint64_t warm_commits = fleet.totalCommits();
    const std::size_t warm_blocks = freeBlocks();
    cluster.runUntil(cluster.now() + kSecond / 2);
    const std::uint64_t commits = fleet.totalCommits() - warm_commits;
    const std::size_t blocks = freeBlocks();
    cluster.runFor(0);

    EXPECT_GT(commits, 100u);
    EXPECT_LE(blocks, warm_blocks + commits / 10);
}

} // namespace
