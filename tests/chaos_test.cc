/**
 * @file
 * Chaos engine tests: the schedule DSL (field coverage and error line
 * numbers), action order and bookkeeping, faults as simulator events
 * (exact injection time, firing during populate), clock faults (skew
 * raised, clock-suspect abort path tripped, commit-ts monotonicity
 * preserved under the invariant monitor), SSD gray failure hooks, and
 * the link-partition heal regression.
 */

#include <cstddef>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/sweep_runner.hh"
#include "clocksync/sync.hh"
#include "common/chaos.hh"
#include "common/invariant_monitor.hh"
#include "common/trace.hh"
#include "flash/ssd.hh"
#include "milana/client.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "workload/cluster.hh"
#include "workload/retwis.hh"

using common::ChaosEngine;
using common::FaultKind;
using common::kMillisecond;
using common::kSecond;
using common::NodeSel;
using milana::CommitResult;
using workload::BackendKind;
using workload::ClockKind;
using workload::Cluster;
using workload::ClusterConfig;
using workload::RetwisConfig;
using workload::RetwisWorkload;

namespace {

// --------------------------------------------------------------- DSL

TEST(ChaosDsl, ParsesFullVocabulary)
{
    ChaosEngine e;
    std::string err;
    const char *text =
        "# full fault vocabulary, one of each verb\n"
        "at 100ms crash backup:0:1 for 200ms failover name=b-down\n"
        "at 1s partition client:2 servers for 50ms oneway\n"
        "at 2s delay all factor=8 for 100ms\n"
        "at 3s clock-step clock:1 by=4ms for 10ms\n"
        "at 4s clock-stuck clock:0 for 20ms\n"
        "at 5s clock-drift clock:2 ppm=500 for 30ms\n"
        "at 6s master-down for 40ms\n"
        "at 7s ssd-slow node:1 channel=3 factor=20 for 50ms\n"
        "at 8s ssd-retry servers prob=0.5 retries=4 for 60ms\n"
        "at 9s ssd-gc servers for 70ms\n"
        "at 5 crash node:0\n"; // a bare number is milliseconds
    ASSERT_TRUE(e.parse(text, &err)) << err;
    ASSERT_EQ(e.faultCount(), 11u);
    const auto &f = e.faults();

    EXPECT_EQ(f[0].kind, FaultKind::NodeCrash);
    EXPECT_EQ(f[0].at, 100 * kMillisecond);
    EXPECT_EQ(f[0].duration, 200 * kMillisecond);
    EXPECT_EQ(f[0].selA.kind, NodeSel::Kind::Backup);
    EXPECT_EQ(f[0].selA.index, 0);
    EXPECT_EQ(f[0].selA.sub, 1);
    EXPECT_TRUE(f[0].failover);
    EXPECT_EQ(f[0].name, "b-down");

    EXPECT_EQ(f[1].kind, FaultKind::LinkPartition);
    EXPECT_TRUE(f[1].oneway);
    EXPECT_EQ(f[1].selA.kind, NodeSel::Kind::Client);
    EXPECT_EQ(f[1].selA.index, 2);
    EXPECT_EQ(f[1].selB.kind, NodeSel::Kind::AllServers);

    EXPECT_EQ(f[2].kind, FaultKind::LinkDelay);
    EXPECT_DOUBLE_EQ(f[2].magnitude, 8.0);
    EXPECT_EQ(f[2].selA.kind, NodeSel::Kind::All);

    EXPECT_EQ(f[3].kind, FaultKind::ClockStep);
    EXPECT_DOUBLE_EQ(f[3].magnitude,
                     static_cast<double>(4 * kMillisecond));

    EXPECT_EQ(f[4].kind, FaultKind::ClockStuck);
    EXPECT_EQ(f[5].kind, FaultKind::ClockDrift);
    EXPECT_DOUBLE_EQ(f[5].magnitude, 500.0);
    EXPECT_EQ(f[6].kind, FaultKind::ClockMasterDown);

    EXPECT_EQ(f[7].kind, FaultKind::SsdSlowChannel);
    EXPECT_EQ(f[7].channel, 3);
    EXPECT_DOUBLE_EQ(f[7].magnitude, 20.0);

    EXPECT_EQ(f[8].kind, FaultKind::SsdReadRetry);
    EXPECT_DOUBLE_EQ(f[8].magnitude, 0.5);
    EXPECT_EQ(f[8].retries, 4);

    EXPECT_EQ(f[9].kind, FaultKind::SsdGcStorm);
    EXPECT_EQ(f[9].name, "ssd-gc"); // default name = verb

    EXPECT_EQ(f[10].at, 5 * kMillisecond);
}

TEST(ChaosDsl, ErrorsNameTheLine)
{
    std::string err;
    ChaosEngine bad_verb;
    EXPECT_FALSE(bad_verb.parse("at 10ms frobnicate all", &err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;

    ChaosEngine later_line;
    EXPECT_FALSE(later_line.parse(
        "# comment\nat 5ms crash node:0\nat 6ms partition\n", &err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;

    ChaosEngine missing_sel;
    EXPECT_FALSE(missing_sel.parse("at 5ms clock-step by=1ms", &err));
    ChaosEngine bad_prob;
    EXPECT_FALSE(bad_prob.parse("at 5ms ssd-retry servers prob=1.5",
                                &err));
    ChaosEngine bad_time;
    EXPECT_FALSE(bad_time.parse("at soon crash node:0", &err));
}

// ------------------------------------------------------------ actions

TEST(ChaosEngineReplay, SameInstantActionsKeepScheduleOrder)
{
    ChaosEngine e(7);
    std::string err;
    ASSERT_TRUE(e.parse("at 10ms delay all factor=2 for 30ms\n"
                        "at 20ms clock-stuck clock:0 for 5ms\n"
                        "at 15ms ssd-gc servers\n"
                        "at 25ms clock-drift clock:1 ppm=5 for 15ms\n",
                        &err))
        << err;

    // Time order; at 25ms and at 40ms the action of the fault added
    // first comes first, start or heal.
    using Action = ChaosEngine::Action;
    const std::vector<std::tuple<common::Time, std::uint32_t, bool>>
        expected = {
            {10 * kMillisecond, 0, true},  {15 * kMillisecond, 2, true},
            {20 * kMillisecond, 1, true},  {25 * kMillisecond, 1, false},
            {25 * kMillisecond, 3, true},  {40 * kMillisecond, 0, false},
            {40 * kMillisecond, 3, false},
        };
    std::vector<std::tuple<common::Time, std::uint32_t, bool>> got;
    for (const Action &a : e.actions())
        got.emplace_back(a.at, a.fault, a.start);
    EXPECT_EQ(got, expected);

    const std::vector<Action> &actions = e.actions();
    for (std::size_t i = 0; i < 4; ++i)
        e.record(actions[i]);
    EXPECT_EQ(e.activeCount(), 2u);
    EXPECT_FALSE(e.clockFaultActive());
    EXPECT_EQ(e.activeFaultName(), "ssd-gc"); // most recent active

    e.record(actions[4]);
    EXPECT_TRUE(e.clockFaultActive());
    EXPECT_EQ(e.activeFaultName(), "clock-drift");

    for (std::size_t i = 5; i < actions.size(); ++i)
        e.record(actions[i]);
    EXPECT_EQ(e.injections(), 4u);
    EXPECT_EQ(e.heals(), 3u); // ssd-gc has no duration: never healed
    EXPECT_EQ(e.activeCount(), 1u);
    EXPECT_FALSE(e.clockFaultActive());
    EXPECT_EQ(e.stats().counterValue("injected.clock-drift"), 1u);
}

// ------------------------------------------------- faults as events

/** A small cell: 1x3 MFTL, Perfect clocks, 2,000 keys. */
ClusterConfig
smallCell(ChaosEngine *chaos, common::TraceLog *trace)
{
    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 3;
    cfg.numClients = 4;
    cfg.backend = BackendKind::Mftl;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 2000;
    cfg.seed = 3;
    cfg.chaos = chaos;
    cfg.trace = trace;
    return cfg;
}

TEST(ChaosCluster, FaultArmedBeforePopulateFiresDuringPopulate)
{
    ChaosEngine chaos(5);
    std::string err;
    ASSERT_TRUE(chaos.parse("at 1ms delay all factor=4 for 2ms", &err))
        << err;
    Cluster cluster(smallCell(&chaos, nullptr));
    cluster.armChaos();
    cluster.populate();
    // The bulk load outlasts the whole fault window, and the fault was
    // injected and healed inside it.
    EXPECT_GT(cluster.now(), 3 * kMillisecond);
    EXPECT_EQ(chaos.injections(), 1u);
    EXPECT_EQ(chaos.heals(), 1u);
    EXPECT_FALSE(chaos.anyActive());
}

TEST(ChaosCluster, InjectInstantCarriesExactTrueTime)
{
    common::TraceLog trace(1u << 16);
    ChaosEngine chaos(5);
    std::string err;
    ASSERT_TRUE(chaos.parse("at 7ms delay all factor=2 for 3ms", &err))
        << err;
    Cluster cluster(smallCell(&chaos, &trace));
    cluster.populate();
    cluster.start();
    // An origin off any round number.
    cluster.runUntil(cluster.now() + 12'345'678);
    const common::Time origin = cluster.now();
    cluster.armChaos();
    cluster.runFor(20 * kMillisecond);

    std::vector<std::pair<std::string, common::Time>> instants;
    for (const common::TraceEvent &e : trace.snapshot())
        if (e.name == "chaos.inject" || e.name == "chaos.heal")
            instants.emplace_back(e.name, e.trueTime);
    const std::vector<std::pair<std::string, common::Time>> expected = {
        {"chaos.inject", origin + 7 * kMillisecond},
        {"chaos.heal", origin + 10 * kMillisecond},
    };
    EXPECT_EQ(instants, expected);
}

// ------------------------------------------------------ clock faults

TEST(ChaosClockFaults, StepStuckAndDriftRaiseSkew)
{
    sim::Simulator s;
    common::Rng rng(42);
    clocksync::ClockEnsemble ens(s, 3,
                                 clocksync::SyncConfig::ptpSoftware(),
                                 rng);
    ens.start();
    s.runUntil(200 * kMillisecond);

    const auto base = ens.instantaneousMaxPairwiseSkew();
    ens.driftClock(0).step(2 * kMillisecond);
    EXPECT_GE(ens.instantaneousMaxPairwiseSkew(), base + kMillisecond);

    // Stuck: local time freezes until healed.
    ens.driftClock(1).setStuck(true);
    const auto frozen = ens.clock(1).localNow();
    s.runUntil(s.now() + 50 * kMillisecond);
    EXPECT_EQ(ens.clock(1).localNow(), frozen);
    ens.driftClock(1).setStuck(false);
    s.runUntil(s.now() + 10 * kMillisecond);
    EXPECT_GT(ens.clock(1).localNow(), frozen);

    // Runaway drift with the master down (holdover: no corrections):
    // 1000 ppm over 200 ms opens ~200 us against an undisturbed peer.
    ens.setMasterDown(true);
    const auto before = ens.clock(2).localNow() - ens.clock(0).localNow();
    ens.driftClock(2).injectDriftPpm(1000.0);
    s.runUntil(s.now() + 200 * kMillisecond);
    const auto after = ens.clock(2).localNow() - ens.clock(0).localNow();
    EXPECT_GE(after - before, 150 * 1000 /* ns */);
    ens.setMasterDown(false);
}

TEST(ChaosClockFaults, ClusterStepTripsClockSuspectNotMonotonicity)
{
    common::TraceLog trace(1u << 16);
    common::InvariantMonitor::Config mcfg;
    mcfg.checkSnapshotReads = true;
    mcfg.checkReplicationBeforeAck = true;
    common::InvariantMonitor monitor(mcfg, nullptr);
    monitor.attach(trace);

    ChaosEngine chaos(42);
    std::string err;
    ASSERT_TRUE(chaos.parse("at 20ms clock-step clock:0 by=3ms for 200ms",
                            &err))
        << err;

    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 3;
    cfg.numClients = 8;
    cfg.backend = BackendKind::Mftl;
    cfg.clocks = ClockKind::PtpSw;
    cfg.numKeys = 300;
    cfg.seed = 5;
    cfg.trace = &trace;
    cfg.chaos = &chaos;

    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();

    RetwisConfig retwis;
    retwis.alpha = 0.9;
    retwis.numKeys = cfg.numKeys;
    retwis.seed = cfg.seed + 100;
    RetwisWorkload fleet(cluster, retwis);
    fleet.start();

    cluster.runUntil(cluster.now() + 300 * kMillisecond);
    fleet.resetMeasurement();
    cluster.resetStats();
    cluster.armChaos();
    cluster.runFor(300 * kMillisecond);

    EXPECT_EQ(monitor.violationCount(), 0u);
    EXPECT_EQ(chaos.injections(), 1u);
    EXPECT_EQ(chaos.heals(), 1u);
    EXPECT_GT(fleet.totalCommits(), 100u);
    // While the step is active, stale-timestamp aborts are classified
    // as ClockSuspect on the server — the fault-aware abort path.
    EXPECT_GT(cluster.serverStats().counterValue(
                  "milana.abort_clock_suspect"),
              0u);
}

// -------------------------------------------------------- SSD faults

flash::Geometry
smallGeometry()
{
    flash::Geometry g;
    g.numBlocks = 8;
    g.pagesPerBlock = 4;
    g.numChannels = 2;
    g.queueDepth = 4;
    return g;
}

flash::PageData
pageWith(std::uint64_t key)
{
    flash::PageData d;
    flash::Record r;
    r.key = key;
    r.value = "v";
    d.records.push_back(r);
    return d;
}

TEST(ChaosSsdFaults, ReadRetryStormCountsRetriesDeterministically)
{
    sim::Simulator s;
    flash::SsdDevice ssd(s, smallGeometry());
    ssd.setFaultRng(common::Rng(7));

    sim::spawn([](sim::Simulator *s, flash::SsdDevice *ssd)
                   -> sim::Task<void> {
        co_await ssd->programPage({0, 0}, pageWith(1));
        for (int i = 0; i < 20; ++i)
            (void)co_await ssd->readPage({0, 0});
        ssd->setReadRetryStorm(1.0, 3);
        for (int i = 0; i < 20; ++i)
            (void)co_await ssd->readPage({0, 0});
        ssd->setReadRetryStorm(0.0, 0);
        (void)s;
    }(&s, &ssd));
    s.run();

    // P(retry)=1 with up to 3 extra attempts: every stormed read
    // retried at least once; none before the storm.
    const auto retries = ssd.stats().counterValue("ssd.read_retries");
    EXPECT_GE(retries, 20u);
    EXPECT_LE(retries, 60u);

    // Same seed, same sequence: the storm replays identically.
    sim::Simulator s2;
    flash::SsdDevice ssd2(s2, smallGeometry());
    ssd2.setFaultRng(common::Rng(7));
    sim::spawn([](flash::SsdDevice *ssd) -> sim::Task<void> {
        co_await ssd->programPage({0, 0}, pageWith(1));
        for (int i = 0; i < 20; ++i)
            (void)co_await ssd->readPage({0, 0});
        ssd->setReadRetryStorm(1.0, 3);
        for (int i = 0; i < 20; ++i)
            (void)co_await ssd->readPage({0, 0});
        ssd->setReadRetryStorm(0.0, 0);
    }(&ssd2));
    s2.run();
    EXPECT_EQ(ssd2.stats().counterValue("ssd.read_retries"), retries);
}

TEST(ChaosSsdFaults, GcStormOccupiesChannelsUntilStopped)
{
    sim::Simulator s;
    flash::SsdDevice ssd(s, smallGeometry());
    ssd.setFaultRng(common::Rng(9));

    ssd.startGcStorm();
    s.runUntil(5 * kMillisecond);
    ssd.stopGcStorm();
    const auto during = ssd.stats().counterValue("ssd.gc_storm_ops");
    EXPECT_GT(during, 0u);
    EXPECT_EQ(ssd.stats().counterValue("ssd.gc_storms"), 1u);

    s.runFor(5 * kMillisecond, kMillisecond);
    EXPECT_EQ(ssd.stats().counterValue("ssd.gc_storm_ops"), during);
}

// ------------------------------------------ partition heal regression

struct ProbeResult
{
    bool done = false;
    bool ok = false;
};

/**
 * One read-modify-write transaction on @p client_index. @p attempts > 1
 * retries so cold-key contention can't fail a healthy probe; the
 * mid-fault probe uses a single attempt, because every failed attempt
 * burns an rpcTimeout and a retry loop would straddle the heal.
 */
sim::Task<void>
probeTxn(Cluster *cluster, std::uint32_t client_index, int attempts,
         ProbeResult *out)
{
    auto &client = cluster->client(client_index);
    const common::Key key = cluster->config().numKeys - 1;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        auto txn = client.beginTransaction();
        auto r = co_await client.get(txn, key);
        if (!r.ok) {
            client.abortTransaction(txn);
            continue; // unreachable server; retry if allowed
        }
        client.put(txn, key, "probe");
        if (co_await client.commitTransaction(txn) ==
            CommitResult::Committed) {
            out->done = true;
            out->ok = true;
            co_return;
        }
    }
    out->done = true;
    out->ok = false;
}

struct HealCell
{
    ProbeResult pre, during, post;
    std::uint64_t violations = 0;
    std::uint64_t faultAborts = 0; ///< txns that died while fault active
};

/**
 * Cluster with a scheduled client-1 <-> servers partition. Probes
 * client 1 before, during, and after the fault window; background
 * Retwis traffic keeps the links busy so messages sent across the
 * fault would surface.
 */
HealCell
runHealCell(bool oneway)
{
    common::TraceLog trace(1u << 18);
    common::InvariantMonitor monitor({}, nullptr);
    monitor.attach(trace);

    ChaosEngine chaos(11);
    std::string err;
    const char *schedule =
        oneway ? "at 30ms partition client:1 servers oneway for 60ms"
               : "at 30ms partition client:1 servers for 60ms";
    EXPECT_TRUE(chaos.parse(schedule, &err)) << err;

    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.numClients = 4;
    cfg.backend = BackendKind::Mftl;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 500;
    cfg.seed = 21;
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
    cluster.armChaos();
    const common::Time origin = cluster.now();

    HealCell cell;
    // Pre-fault probe: completes well before the 30ms injection.
    sim::spawn(probeTxn(&cluster, 1, 5, &cell.pre));
    cluster.runUntil(origin + 25 * kMillisecond);
    // Mid-fault probe (single attempt — a retry loop would straddle
    // the heal): the partition is active 30ms..90ms. The read may be
    // served by the client's inter-txn cache, but the commit's prepare
    // RPC crosses the broken link and must fail.
    cluster.runUntil(origin + 35 * kMillisecond);
    sim::spawn(probeTxn(&cluster, 1, 1, &cell.during));
    cluster.runUntil(origin + 85 * kMillisecond);
    // Post-heal probe.
    cluster.runUntil(origin + 95 * kMillisecond);
    sim::spawn(probeTxn(&cluster, 1, 5, &cell.post));
    cluster.runFor(60 * kMillisecond, 200 * kMillisecond);

    cell.violations = monitor.violationCount();
    cell.faultAborts =
        cluster.clientStats().counterValue("txn.fault_active_aborts");
    return cell;
}

/**
 * The heal cell on N independent simulators at once, one per
 * SweepRunner worker, the way `--jobs=N` runs sweep cells. Every copy
 * must fail its mid-fault probe and heal on its own, and all copies
 * must agree exactly: no fault or link state may leak between
 * concurrent simulators. N = 1 is the plain single-simulator cell; the
 * TSan gate (tsan_chaos) runs the whole suite.
 */
class PartitionHeal : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PartitionHeal, RpcsFailDuringWindowAndSucceedAfterHeal)
{
    const unsigned copies = GetParam();
    std::vector<HealCell> cells(copies);
    bench::SweepRunner(copies).run(
        copies, [&](std::size_t i) { cells[i] = runHealCell(false); });
    for (const HealCell &cell : cells) {
        EXPECT_TRUE(cell.pre.done);
        EXPECT_TRUE(cell.pre.ok);
        EXPECT_TRUE(cell.during.done);
        EXPECT_FALSE(cell.during.ok);
        EXPECT_TRUE(cell.post.done);
        EXPECT_TRUE(cell.post.ok);
        EXPECT_GT(cell.faultAborts, 0u);
        EXPECT_EQ(cell.violations, 0u);
        EXPECT_EQ(cell.faultAborts, cells[0].faultAborts);
    }
}

TEST(PartitionHeal, OnewayPartitionAlsoHealsCleanly)
{
    const HealCell cell = runHealCell(true);
    EXPECT_TRUE(cell.pre.ok);
    EXPECT_FALSE(cell.during.ok);
    EXPECT_TRUE(cell.post.ok);
    EXPECT_EQ(cell.violations, 0u);
}

// ------------------------------------------------ scenario determinism

TEST(ChaosCluster, SameScheduleAndSeedReplaysExactly)
{
    auto run = [] {
        ChaosEngine chaos(17);
        std::string err;
        EXPECT_TRUE(chaos.parse(
            "at 20ms crash backup:0:0 for 40ms\n"
            "at 30ms delay all factor=4 for 30ms\n",
            &err))
            << err;
        ClusterConfig cfg;
        cfg.numShards = 1;
        cfg.replicasPerShard = 3;
        cfg.numClients = 4;
        cfg.backend = BackendKind::Mftl;
        cfg.clocks = ClockKind::Perfect;
        cfg.numKeys = 400;
        cfg.seed = 9;
        cfg.chaos = &chaos;
        Cluster cluster(cfg);
        cluster.populate();
        cluster.start();
        RetwisConfig retwis;
        retwis.numKeys = cfg.numKeys;
        retwis.seed = cfg.seed + 100;
        RetwisWorkload fleet(cluster, retwis);
        fleet.start();
        cluster.runUntil(cluster.now() + 100 * kMillisecond);
        fleet.resetMeasurement();
        cluster.resetStats();
        cluster.armChaos();
        cluster.runFor(200 * kMillisecond);
        return std::make_tuple(fleet.totalCommits(),
                               fleet.totalAborts(),
                               chaos.injections(), chaos.heals());
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a, b);
    EXPECT_GT(std::get<0>(a), 50u);
    EXPECT_EQ(std::get<2>(a), 2u);
    EXPECT_EQ(std::get<3>(a), 2u);
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Copies, PartitionHeal,
                         ::testing::Values(1u, 2u, 8u));
