/**
 * @file
 * Tests for the workload layer: Retwis mix statistics, the cluster
 * builder, end-to-end Retwis runs on every backend, the contention
 * knob, the micro-benchmark driver, and the Centiman baseline.
 */

#include <gtest/gtest.h>

#include "flash/ssd.hh"
#include "ftl/dram.hh"
#include "workload/cluster.hh"
#include "workload/micro.hh"
#include "workload/retwis.hh"

using namespace workload;
using common::kSecond;

namespace {

ClusterConfig
tinyCluster(BackendKind backend, std::uint32_t clients = 4)
{
    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.numClients = clients;
    cfg.backend = backend;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 2000;
    return cfg;
}

struct RunResult
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    double abortRate = 0;
};

RunResult
runRetwis(const ClusterConfig &ccfg, double alpha, int seconds,
          bool read_heavy = false)
{
    Cluster cluster(ccfg);
    cluster.populate();
    cluster.start();
    RetwisConfig rcfg;
    rcfg.alpha = alpha;
    rcfg.numKeys = ccfg.numKeys;
    rcfg.readHeavy = read_heavy;
    RetwisWorkload fleet(cluster, rcfg);
    fleet.start();
    cluster.sim().runUntil(cluster.sim().now() + kSecond / 2);
    fleet.resetMeasurement();
    cluster.sim().runFor(seconds * kSecond);
    RunResult r;
    r.commits = fleet.totalCommits();
    r.aborts = fleet.totalAborts();
    r.abortRate = fleet.abortRate();
    return r;
}

} // namespace

TEST(Retwis, CommitsTransactionsOnDram)
{
    const auto r = runRetwis(tinyCluster(BackendKind::Dram), 0.6, 2);
    EXPECT_GT(r.commits, 100u);
    EXPECT_GE(r.abortRate, 0.0);
    EXPECT_LE(r.abortRate, 1.0);
}

TEST(Retwis, CommitsTransactionsOnMftl)
{
    const auto r = runRetwis(tinyCluster(BackendKind::Mftl), 0.6, 2);
    EXPECT_GT(r.commits, 100u);
}

TEST(Retwis, CommitsTransactionsOnVftl)
{
    const auto r = runRetwis(tinyCluster(BackendKind::Vftl), 0.6, 2);
    EXPECT_GT(r.commits, 100u);
}

TEST(Retwis, CommitsTransactionsOnSingleVersion)
{
    const auto r =
        runRetwis(tinyCluster(BackendKind::SingleVersion), 0.6, 2);
    EXPECT_GT(r.commits, 100u);
}

TEST(Retwis, ContentionRaisesAbortRate)
{
    const auto low = runRetwis(tinyCluster(BackendKind::Dram, 8), 0.4, 2);
    const auto high =
        runRetwis(tinyCluster(BackendKind::Dram, 8), 0.99, 2);
    EXPECT_GT(high.abortRate, low.abortRate);
}

TEST(Retwis, SingleVersionAbortsMoreThanMultiVersion)
{
    // Figure 6's core claim at test scale. (At extreme contention the
    // two converge — write-write conflicts dominate — so probe the
    // moderate-contention regime where snapshots matter.)
    const auto sv = runRetwis(
        tinyCluster(BackendKind::SingleVersion, 8), 0.7, 2);
    const auto mv = runRetwis(tinyCluster(BackendKind::Mftl, 8), 0.7, 2);
    EXPECT_LT(mv.abortRate, sv.abortRate);
}

TEST(Retwis, ReplicatedClusterWorks)
{
    ClusterConfig cfg = tinyCluster(BackendKind::Dram, 4);
    cfg.numShards = 2;
    cfg.replicasPerShard = 3;
    const auto r = runRetwis(cfg, 0.6, 2);
    EXPECT_GT(r.commits, 100u);
}

TEST(Retwis, NtpAbortsMoreThanPtp)
{
    // Figure 7's core claim at test scale: same seed, same workload,
    // only the clock discipline differs.
    ClusterConfig ptp = tinyCluster(BackendKind::Dram, 8);
    ptp.clocks = ClockKind::PtpSw;
    ClusterConfig ntp = ptp;
    ntp.clocks = ClockKind::Ntp;
    const auto r_ptp = runRetwis(ptp, 0.9, 3);
    const auto r_ntp = runRetwis(ntp, 0.9, 3);
    EXPECT_LT(r_ptp.abortRate, r_ntp.abortRate);
}

TEST(Retwis, CentimanRunsAndValidates)
{
    ClusterConfig cfg = tinyCluster(BackendKind::Dram, 4);
    cfg.numShards = 2;
    cfg.centiman = true;
    cfg.centimanDisseminateEvery = 50;
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    RetwisConfig rcfg;
    rcfg.alpha = 0.6;
    rcfg.numKeys = cfg.numKeys;
    rcfg.readHeavy = true;
    RetwisWorkload fleet(cluster, rcfg);
    fleet.start();
    cluster.sim().runFor(3 * kSecond);
    EXPECT_GT(fleet.totalCommits(), 100u);
    const auto stats = cluster.clientStats();
    // Both local and remote validation paths should have been used.
    EXPECT_GT(stats.counterValue("centiman.local_validated") +
                  stats.counterValue("centiman.remote_validated"),
              0u);
}

TEST(Cluster, StatsAggregationAndReset)
{
    ClusterConfig cfg = tinyCluster(BackendKind::Dram, 2);
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    RetwisConfig rcfg;
    rcfg.numKeys = cfg.numKeys;
    RetwisWorkload fleet(cluster, rcfg);
    fleet.start();
    cluster.sim().runFor(kSecond);
    EXPECT_GT(cluster.clientStats().counterValue("txn.begun"), 0u);
    cluster.resetStats();
    EXPECT_EQ(cluster.clientStats().counterValue("txn.begun"), 0u);
}

TEST(Cluster, TxnTableStaysBoundedOverLongRun)
{
    // Figure 8's shape (3x3 DRAM, PTP-SW, read-heavy Retwis) with few
    // clients, for 30 simulated seconds. Truncation keeps only the last
    // few hundred milliseconds of transactions, so the records held
    // over all servers stay under a fixed bound. Kept forever, they
    // grow by about 6,000 per simulated second here.
    constexpr std::size_t kBound = 2'000;
    ClusterConfig cfg;
    cfg.numShards = 3;
    cfg.replicasPerShard = 3;
    cfg.numClients = 4;
    cfg.backend = BackendKind::Dram;
    cfg.clocks = ClockKind::PtpSw;
    cfg.numKeys = 3000;
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    RetwisConfig rcfg;
    rcfg.alpha = 0.6;
    rcfg.numKeys = cfg.numKeys;
    rcfg.readHeavy = true;
    RetwisWorkload fleet(cluster, rcfg);
    fleet.start();
    for (int checkpoint = 1; checkpoint <= 3; ++checkpoint) {
        cluster.sim().runUntil(cluster.sim().now() + 10 * kSecond);
        std::size_t held = 0;
        for (const auto &[node, server] : cluster.directory().all()) {
            const auto &table =
                dynamic_cast<milana::MilanaServer &>(*server).txnTable();
            held += table.size() + table.decidedCount();
        }
        EXPECT_LT(held, kBound) << "at " << 10 * checkpoint << " s";
    }
    EXPECT_GT(fleet.totalCommits(), 100'000u);
}

TEST(Micro, DriverSustainsThroughputOnDram)
{
    sim::Simulator sim;
    ftl::DramBackend dram(sim);
    MicroConfig cfg;
    cfg.numKeys = 1000;
    cfg.workers = 16;
    cfg.getPercent = 50;
    MicroBench micro(sim, dram, cfg);
    micro.populate();
    micro.start();
    // DRAM sustains ~tens of millions of ops per simulated second;
    // a few simulated milliseconds are ample for the assertion.
    sim.runFor(2 * common::kMillisecond);
    EXPECT_GT(micro.gets(), 1000u);
    EXPECT_GT(micro.puts(), 1000u);
    EXPECT_GT(micro.getLatency().count(), 0u);
}

TEST(Micro, GetPercentRespected)
{
    sim::Simulator sim;
    ftl::DramBackend dram(sim);
    MicroConfig cfg;
    cfg.numKeys = 1000;
    cfg.workers = 16;
    cfg.getPercent = 90;
    MicroBench micro(sim, dram, cfg);
    micro.populate();
    micro.start();
    sim.runFor(2 * common::kMillisecond);
    const double get_frac =
        static_cast<double>(micro.gets()) /
        static_cast<double>(micro.gets() + micro.puts());
    EXPECT_NEAR(get_frac, 0.90, 0.03);
}

TEST(Micro, MftlSurvivesSustainedMixedLoad)
{
    // Regression test for the GC wedge class of bugs: a mixed load at
    // high concurrency must keep flowing through GC pressure.
    sim::Simulator sim;
    flash::SsdDevice ssd(
        sim, flash::Geometry::scaledFor(5000 * 512, 0.35));
    ftl::Mftl mftl(sim, ssd, ftl::Mftl::Config{});
    MicroConfig cfg;
    cfg.numKeys = 5000;
    cfg.workers = 64;
    cfg.getPercent = 50;
    MicroBench micro(sim, mftl, cfg);
    micro.populate();
    mftl.start();
    micro.start();
    sim.runUntil(sim.now() + kSecond);
    const auto puts_at_1s = micro.puts();
    sim.runFor(2 * kSecond);
    // Still making progress in the final two seconds.
    EXPECT_GT(micro.puts(), puts_at_1s + 1000);
    EXPECT_GT(ssd.stats().counterValue("ssd.erases"), 0u);
}

TEST(Micro, VftlSurvivesSustainedMixedLoad)
{
    sim::Simulator sim;
    flash::SsdDevice ssd(
        sim, flash::Geometry::scaledFor(5000 * 512, 0.35));
    ftl::Sftl sftl(sim, ssd, ftl::Sftl::Config{});
    ftl::Vftl vftl(sim, sftl, ftl::Vftl::Config{});
    MicroConfig cfg;
    cfg.numKeys = 5000;
    cfg.workers = 64;
    cfg.getPercent = 50;
    MicroBench micro(sim, vftl, cfg);
    micro.populate();
    vftl.start();
    micro.start();
    sim.runUntil(sim.now() + kSecond);
    const auto puts_at_1s = micro.puts();
    sim.runFor(2 * kSecond);
    EXPECT_GT(micro.puts(), puts_at_1s + 1000);
}

TEST(RetwisInstance, MixMatchesTable2)
{
    // Drive shapes statistically: read-only fraction ~50% (default) or
    // ~75% (read-heavy).
    ClusterConfig cfg = tinyCluster(BackendKind::Dram, 1);
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    RetwisConfig rcfg;
    rcfg.numKeys = cfg.numKeys;
    rcfg.readHeavy = true;
    RetwisWorkload fleet(cluster, rcfg);
    fleet.start();
    cluster.sim().runFor(3 * kSecond);
    const auto stats = cluster.clientStats();
    const double ro = static_cast<double>(
        stats.counterValue("txn.local_validations"));
    const double total =
        static_cast<double>(stats.counterValue("txn.begun"));
    ASSERT_GT(total, 500);
    EXPECT_NEAR(ro / total, 0.75, 0.06);
}
